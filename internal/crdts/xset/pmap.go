// Package xset holds what the add-wins and remove-wins sets share: tagged
// instances, their canonical encodings, and the persistent map their states
// are built on.
//
// The states of both sets only ever grow (Sec 2.4, Fig 5): every effector
// adds an instance or a tombstone and nothing is ever erased. A persistent
// map that supports insertion but not deletion is therefore enough, and
// applying an effector copies only the nodes on the paths it inserts along,
// sharing the rest of the tree with the old state.
package xset

import "repro/internal/codec"

// Map is a persistent ordered map from string keys to values of type V. The
// zero Map is empty. Set returns a new version and leaves the receiver
// unchanged, so versions are immutable values that share structure.
//
// The map is a treap whose node priorities are a fixed hash of the key (ties
// broken by key), so its shape is a function of its key set alone: equal
// maps are equal trees, whatever order they were built in.
type Map[V any] struct {
	root *node[V]
	n    int
}

type node[V any] struct {
	key         string
	prio        uint64
	val         V
	left, right *node[V]
}

// Len returns the number of keys.
func (m Map[V]) Len() int { return m.n }

// Get returns the value stored under k.
func (m Map[V]) Get(k string) (V, bool) {
	for n := m.root; n != nil; {
		switch {
		case k < n.key:
			n = n.left
		case k > n.key:
			n = n.right
		default:
			return n.val, true
		}
	}
	var zero V
	return zero, false
}

// Set returns a version of m with k mapped to v, copying only the nodes on
// the path to k.
func (m Map[V]) Set(k string, v V) Map[V] {
	root, added := insert(m.root, &node[V]{key: k, prio: codec.Fingerprint([]byte(k)), val: v})
	if added {
		m.n++
	}
	m.root = root
	return m
}

// insert returns a copy of the subtree at n with x inserted (or its value
// overwriting the node with the same key) and reports whether the key is
// new. Every node it returns above the insertion point is a fresh copy, so
// the rotations may rewrite them in place.
func insert[V any](n, x *node[V]) (*node[V], bool) {
	if n == nil {
		return x, true
	}
	c := *n
	var added bool
	switch {
	case x.key < n.key:
		c.left, added = insert(n.left, x)
		if above(c.left, n) {
			l := c.left
			c.left, l.right = l.right, &c
			return l, added
		}
	case x.key > n.key:
		c.right, added = insert(n.right, x)
		if above(c.right, n) {
			r := c.right
			c.right, r.left = r.left, &c
			return r, added
		}
	default:
		c.val = x.val
	}
	return &c, added
}

// above reports whether a belongs above b in the heap order of priorities.
func above[V any](a, b *node[V]) bool {
	return a.prio > b.prio || a.prio == b.prio && a.key < b.key
}

// Ascend calls fn on every key ≥ from, with its value, in ascending key
// order until fn returns false.
func (m Map[V]) Ascend(from string, fn func(k string, v V) bool) {
	ascend(m.root, from, fn)
}

func ascend[V any](n *node[V], from string, fn func(string, V) bool) bool {
	for n != nil {
		if n.key >= from {
			if !ascend(n.left, from, fn) || !fn(n.key, n.val) {
				return false
			}
		}
		n = n.right
	}
	return true
}
