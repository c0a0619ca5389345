// Package rtree implements the spatial index used by the ST-Index.
//
// The tree stores items keyed by their minimum bounding rectangle and
// supports nearest-neighbour search. A bulk loader (Sort-Tile-Recursive)
// builds a packed tree from a static set, which matches the paper's
// setting: the re-segmented road network is fixed, so every temporal leaf
// can share the same spatial index structure (thesis §3.2.1).
package rtree

import (
	"container/heap"
	"fmt"
	"sort"

	"streach/internal/geo"
)

// Item is an entry in the tree: an opaque integer ID with a bounding box.
type Item struct {
	ID  int64
	Box geo.MBR
}

// maxEntries is the fan-out of every node.
const maxEntries = 16

type node struct {
	box      geo.MBR
	leaf     bool
	items    []Item  // populated when leaf
	children []*node // populated when !leaf
}

// Tree is a static R-tree, built in one shot by BulkLoad. The zero value
// is an empty tree.
type Tree struct {
	root  *node
	count int
}

// BulkLoad builds a packed tree over items using Sort-Tile-Recursive
// packing. The input slice is not modified.
func BulkLoad(items []Item) *Tree {
	t := &Tree{count: len(items)}
	if len(items) == 0 {
		t.root = &node{leaf: true}
		return t
	}
	work := make([]Item, len(items))
	copy(work, items)

	leaves := strPack(work)
	level := leaves
	for len(level) > 1 {
		level = strPackNodes(level)
	}
	t.root = level[0]
	return t
}

// strPack tiles the items into leaf nodes: sort by lng, slice into vertical
// strips, then sort each strip by lat and cut into nodes.
func strPack(items []Item) []*node {
	sort.Slice(items, func(i, j int) bool {
		return items[i].Box.Center().Lng < items[j].Box.Center().Lng
	})
	numLeaves := (len(items) + maxEntries - 1) / maxEntries
	stripCount := intSqrtCeil(numLeaves)
	stripSize := ((len(items) + stripCount - 1) / stripCount)

	var leaves []*node
	for s := 0; s < len(items); s += stripSize {
		end := s + stripSize
		if end > len(items) {
			end = len(items)
		}
		strip := items[s:end]
		sort.Slice(strip, func(i, j int) bool {
			return strip[i].Box.Center().Lat < strip[j].Box.Center().Lat
		})
		for o := 0; o < len(strip); o += maxEntries {
			oe := o + maxEntries
			if oe > len(strip) {
				oe = len(strip)
			}
			n := &node{leaf: true, items: append([]Item(nil), strip[o:oe]...)}
			for _, it := range n.items {
				n.box.ExpandMBR(it.Box)
			}
			leaves = append(leaves, n)
		}
	}
	return leaves
}

func strPackNodes(level []*node) []*node {
	sort.Slice(level, func(i, j int) bool {
		return level[i].box.Center().Lng < level[j].box.Center().Lng
	})
	numParents := (len(level) + maxEntries - 1) / maxEntries
	stripCount := intSqrtCeil(numParents)
	stripSize := ((len(level) + stripCount - 1) / stripCount)

	var parents []*node
	for s := 0; s < len(level); s += stripSize {
		end := s + stripSize
		if end > len(level) {
			end = len(level)
		}
		strip := append([]*node(nil), level[s:end]...)
		sort.Slice(strip, func(i, j int) bool {
			return strip[i].box.Center().Lat < strip[j].box.Center().Lat
		})
		for o := 0; o < len(strip); o += maxEntries {
			oe := o + maxEntries
			if oe > len(strip) {
				oe = len(strip)
			}
			p := &node{children: append([]*node(nil), strip[o:oe]...)}
			for _, c := range p.children {
				p.box.ExpandMBR(c.box)
			}
			parents = append(parents, p)
		}
	}
	return parents
}

func intSqrtCeil(n int) int {
	if n <= 1 {
		return 1
	}
	s := 1
	for s*s < n {
		s++
	}
	return s
}

// Len returns the number of items in the tree.
func (t *Tree) Len() int { return t.count }

// nnEntry is a priority-queue entry for best-first nearest-neighbour search.
type nnEntry struct {
	dist float64
	n    *node
	item *Item
}

type nnQueue []nnEntry

func (q nnQueue) Len() int            { return len(q) }
func (q nnQueue) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q nnQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *nnQueue) Push(x interface{}) { *q = append(*q, x.(nnEntry)) }
func (q *nnQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// Nearest returns the k items nearest to p (by box distance), closest
// first. It returns fewer when the tree holds fewer than k items.
func (t *Tree) Nearest(p geo.Point, k int) []Item {
	if t.root == nil || k <= 0 {
		return nil
	}
	q := &nnQueue{{dist: t.root.box.DistanceTo(p), n: t.root}}
	var out []Item
	for q.Len() > 0 && len(out) < k {
		e := heap.Pop(q).(nnEntry)
		switch {
		case e.item != nil:
			out = append(out, *e.item)
		case e.n.leaf:
			for i := range e.n.items {
				it := &e.n.items[i]
				heap.Push(q, nnEntry{dist: it.Box.DistanceTo(p), item: it})
			}
		default:
			for _, c := range e.n.children {
				heap.Push(q, nnEntry{dist: c.box.DistanceTo(p), n: c})
			}
		}
	}
	return out
}

// NearestWithin returns the items whose boxes are within radius metres of
// p, closest first, up to limit items (limit <= 0 means no limit).
func (t *Tree) NearestWithin(p geo.Point, radius float64, limit int) []Item {
	if t.root == nil {
		return nil
	}
	q := &nnQueue{{dist: t.root.box.DistanceTo(p), n: t.root}}
	var out []Item
	for q.Len() > 0 {
		e := heap.Pop(q).(nnEntry)
		if e.dist > radius {
			break
		}
		switch {
		case e.item != nil:
			out = append(out, *e.item)
			if limit > 0 && len(out) >= limit {
				return out
			}
		case e.n.leaf:
			for i := range e.n.items {
				it := &e.n.items[i]
				heap.Push(q, nnEntry{dist: it.Box.DistanceTo(p), item: it})
			}
		default:
			for _, c := range e.n.children {
				heap.Push(q, nnEntry{dist: c.box.DistanceTo(p), n: c})
			}
		}
	}
	return out
}

// checkInvariants validates structural invariants; used by tests.
func (t *Tree) checkInvariants() error {
	if t.root == nil {
		return nil
	}
	n, err := checkNode(t.root, true)
	if err != nil {
		return err
	}
	if n != t.count {
		return fmt.Errorf("item count mismatch: tree says %d, traversal found %d", t.count, n)
	}
	return nil
}

func checkNode(n *node, isRoot bool) (int, error) {
	if n.leaf {
		if !isRoot && len(n.items) < 1 {
			return 0, fmt.Errorf("empty non-root leaf")
		}
		for _, it := range n.items {
			if !n.box.ContainsMBR(it.Box) && !it.Box.Empty() {
				return 0, fmt.Errorf("leaf box does not cover item %d", it.ID)
			}
		}
		return len(n.items), nil
	}
	if len(n.children) == 0 {
		return 0, fmt.Errorf("internal node with no children")
	}
	total := 0
	for _, c := range n.children {
		if !n.box.ContainsMBR(c.box) {
			return 0, fmt.Errorf("parent box does not cover child box")
		}
		cnt, err := checkNode(c, false)
		if err != nil {
			return 0, err
		}
		total += cnt
	}
	return total, nil
}
