package main

import (
	"fmt"
	"time"

	"repro/internal/transport"
)

// frameCosts is the frame+codec layer measured by replaying frames the
// traced run captured at its Broadcast boundary.
type frameCosts struct {
	appendNs, batchEncodeNs, batchDecodeNs, allocBytes float64
}

// replayFrames times Frame.Append, AppendBatch and DecodeBatch (which runs
// Decode on every nested frame) per frame over frames cut into containers
// of batch frames, and the bytes one encode+decode pass allocates per frame.
func replayFrames(frames []transport.Frame, batch int) (frameCosts, error) {
	var c frameCosts
	if len(frames) == 0 {
		return c, nil
	}
	if batch < 1 {
		batch = 1
	}
	var chunks [][]transport.Frame
	for i := 0; i < len(frames); i += batch {
		j := i + batch
		if j > len(frames) {
			j = len(frames)
		}
		chunks = append(chunks, frames[i:j])
	}
	containers := make([][]byte, len(chunks))
	for i, ch := range chunks {
		containers[i] = transport.AppendBatch(nil, ch)
	}
	// Each measurement repeats whole passes until it has run for minDur.
	const minDur = 20 * time.Millisecond
	perFrame := func(pass func()) float64 {
		passes := 0
		t0 := time.Now()
		for time.Since(t0) < minDur || passes < 2 {
			pass()
			passes++
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(passes*len(frames))
	}
	var buf []byte
	c.appendNs = perFrame(func() {
		for _, f := range frames {
			buf = f.Append(buf[:0])
		}
	})
	c.batchEncodeNs = perFrame(func() {
		for _, ch := range chunks {
			buf = transport.AppendBatch(buf[:0], ch)
		}
	})
	var decodeErr error
	c.batchDecodeNs = perFrame(func() {
		for _, b := range containers {
			if _, err := transport.DecodeBatch(b); err != nil && decodeErr == nil {
				decodeErr = err
			}
		}
	})
	if decodeErr != nil {
		return c, fmt.Errorf("frame replay: %w", decodeErr)
	}
	a0 := totalAlloc()
	for _, ch := range chunks {
		buf = transport.AppendBatch(buf[:0], ch)
		if _, err := transport.DecodeBatch(buf); err != nil {
			return c, fmt.Errorf("frame replay: %w", err)
		}
	}
	c.allocBytes = float64(totalAlloc()-a0) / float64(len(frames))
	return c, nil
}
