// Package btree implements a disk-backed B+tree over the storage layer's
// pages. It is the index substrate for the engine: the object table
// (oid → header), the version index ((oid, vid) → record), the temporal
// index ((oid, stamp) → vid), the type catalog, and per-type extents are
// all B+trees.
//
// Keys and values are byte strings ordered by bytes.Compare. Keys and
// values are size-limited (a fraction of the page size) so that every
// node holds several entries; callers index large payloads indirectly by
// storing RIDs as values.
//
// Nodes are slotted pages read and changed in place: a lookup
// binary-searches the slot directory of the page bytes, and a Put or
// Delete inserts or removes one cell. Only a split rewrites whole pages.
// Crash safety comes from the page-image WAL, whatever the layout.
// Deletion is lazy: empty nodes are pruned and the root collapsed, but
// partially empty nodes are not rebalanced (space is reclaimed when a
// node empties; ordering invariants are unaffected).
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"ode/internal/oid"
	"ode/internal/storage"
)

// ErrKeyTooLarge reports a key beyond the per-node size budget.
var ErrKeyTooLarge = errors.New("btree: key too large")

// ErrValTooLarge reports a value beyond the per-node size budget.
var ErrValTooLarge = errors.New("btree: value too large")

// ErrCorrupt reports a node whose bytes break the layout: a bad kind
// byte, a slot or cell outside the page, a malformed length, or links
// that do not form a tree.
var ErrCorrupt = errors.New("btree: corrupt node")

// Node layout. Offsets are within the page body (after the storage
// page header):
//
//	[0]          kind      u8  — kindLeaf or kindInternal
//	[1:5]        link      u32 — leaf: next leaf; internal: leftmost child
//	[5:7]        count     u16 — number of cells
//	[7:9]        cellStart u16 — cells occupy [cellStart, len(body))
//	[9+2i:11+2i] slot i    u16 — offset of cell i; slots are in key order
//
// Cells are packed downward from the end of the body. A leaf cell is
// `uvarint klen, key, uvarint vlen, val`; an internal cell is
// `uvarint klen, key, u32 child`, where child holds the keys ≥ key (and
// below the next cell's key). A removed or resized cell leaves its bytes
// behind as garbage until an insert finds the gap between the slot
// directory and cellStart too small and compacts the page.
const (
	offKind      = 0
	offLink      = 1
	offCount     = 5
	offCellStart = 7
	nodeHdr      = 9
	slotSize     = 2

	kindLeaf     = 1
	kindInternal = 2

	// maxDepth bounds every descent, so child links that cycle fail as
	// corrupt instead of looping.
	maxDepth = 32

	// memoSlots bounds the page pointers a read-only handle keeps.
	memoSlots = 4
)

// Tree is a handle on one B+tree. The root page may change across
// mutations; persist Root() after every mutating call (the engine stores
// it in a superblock root slot).
//
// A handle on a read-only view keeps up to memoSlots page pointers of
// the nodes it visited last (always the root among them) and the leaf
// its last Get ended in, so consecutive lookups skip the buffer pool
// and, for nearby keys, the descent. This needs no coherence rule: a
// read-only view resolves every page to its pinned snapshot, and
// snapshot pages are never mutated. Writer handles keep nothing,
// because a writer's page objects change under copy-on-write.
//
// Ascend hands fn slices of the page bytes, so fn must not mutate the
// tree; engine code collects first and mutates after iteration.
type Tree struct {
	st   *storage.TxView
	root oid.PageID

	ro   bool
	memo [memoSlots]*storage.Page
	hand uint8
	last *storage.Page
}

// Create allocates an empty tree (a single empty leaf) and returns it.
func Create(st *storage.TxView) (*Tree, error) {
	p, err := st.Allocate(storage.PageBTree)
	if err != nil {
		return nil, err
	}
	nodeView{id: p.ID, b: p.Body()}.init(kindLeaf, oid.NilPage)
	return Open(st, p.ID), nil
}

// Open returns a handle on the tree rooted at root.
func Open(st *storage.TxView, root oid.PageID) *Tree {
	return &Tree{st: st, root: root, ro: !st.Writable()}
}

// Root returns the current root page id.
func (t *Tree) Root() oid.PageID { return t.root }

// MaxValueSize returns the largest value Put accepts; callers with
// larger payloads must indirect through the record heap.
func (t *Tree) MaxValueSize() int { return t.maxVal() }

// maxKey returns the largest permitted key for the store's page size.
func (t *Tree) maxKey() int { return t.bodyCap() / 16 }

// maxVal returns the largest permitted value.
func (t *Tree) maxVal() int { return t.bodyCap() / 8 }

func (t *Tree) bodyCap() int { return t.st.PageSize() - storage.HeaderSize }

// --- in-place node access ---

// nodeView is a node's page body, read and written in place. Every
// accessor bounds-checks what it parses and reports ErrCorrupt instead
// of reading outside the body.
type nodeView struct {
	id oid.PageID
	b  []byte
}

func corrupt(id oid.PageID, format string, args ...any) error {
	return fmt.Errorf("%w: page %d: %s", ErrCorrupt, id, fmt.Sprintf(format, args...))
}

func (n nodeView) leaf() bool       { return n.b[offKind] == kindLeaf }
func (n nodeView) link() oid.PageID { return oid.PageID(binary.BigEndian.Uint32(n.b[offLink:])) }
func (n nodeView) count() int       { return int(binary.BigEndian.Uint16(n.b[offCount:])) }
func (n nodeView) cellStart() int   { return int(binary.BigEndian.Uint16(n.b[offCellStart:])) }
func (n nodeView) slot(i int) int {
	return int(binary.BigEndian.Uint16(n.b[nodeHdr+slotSize*i:]))
}

func (n nodeView) setLink(id oid.PageID) { binary.BigEndian.PutUint32(n.b[offLink:], uint32(id)) }
func (n nodeView) setCount(c int)        { binary.BigEndian.PutUint16(n.b[offCount:], uint16(c)) }
func (n nodeView) setCellStart(off int)  { binary.BigEndian.PutUint16(n.b[offCellStart:], uint16(off)) }
func (n nodeView) setSlot(i, off int) {
	binary.BigEndian.PutUint16(n.b[nodeHdr+slotSize*i:], uint16(off))
}

// init formats the body as an empty node.
func (n nodeView) init(kind byte, link oid.PageID) {
	n.b[offKind] = kind
	n.setLink(link)
	n.setCount(0)
	n.setCellStart(len(n.b))
}

// validate checks the header: a known kind and a slot directory that
// ends at or before cellStart, which lies inside the body. Slot reads
// for i < count are in bounds from here on.
func (n nodeView) validate() error {
	if k := n.b[offKind]; k != kindLeaf && k != kindInternal {
		return corrupt(n.id, "kind byte %d", k)
	}
	if cs, end := n.cellStart(), nodeHdr+slotSize*n.count(); cs < end || cs > len(n.b) {
		return corrupt(n.id, "cell start %d outside [%d, %d]", cs, end, len(n.b))
	}
	return nil
}

// gap is the free space between the slot directory and the cells.
func (n nodeView) gap() int { return n.cellStart() - nodeHdr - slotSize*n.count() }

// uvarint is binary.Uvarint with a one-byte fast path.
func uvarint(b []byte) (uint64, int) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	return binary.Uvarint(b)
}

func uvarintLen(x int) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// span returns the length-prefixed byte string at off and the offset
// just past it.
func (n nodeView) span(off int) ([]byte, int, error) {
	l, w := uvarint(n.b[off:])
	if w <= 0 || l > uint64(len(n.b)-off-w) {
		return nil, 0, corrupt(n.id, "bad length at offset %d", off)
	}
	s, e := off+w, off+w+int(l)
	return n.b[s:e:e], e, nil
}

// keyAt parses the key of cell i and returns the offset just past it.
func (n nodeView) keyAt(i int) ([]byte, int, error) {
	off := n.slot(i)
	if off < n.cellStart() || off >= len(n.b) {
		return nil, 0, corrupt(n.id, "slot %d offset %d outside the cell area", i, off)
	}
	return n.span(off)
}

func (n nodeView) key(i int) ([]byte, error) {
	k, _, err := n.keyAt(i)
	return k, err
}

// leafCell returns cell i of a leaf.
func (n nodeView) leafCell(i int) (k, v []byte, err error) {
	k, end, err := n.keyAt(i)
	if err != nil {
		return nil, nil, err
	}
	if end >= len(n.b) {
		return nil, nil, corrupt(n.id, "cell %d truncated", i)
	}
	v, _, err = n.span(end)
	return k, v, err
}

// child returns child c of an internal node, c in [0, count]: child 0
// is the link, child c the pointer of cell c-1.
func (n nodeView) child(c int) (oid.PageID, error) {
	if c == 0 {
		return n.link(), nil
	}
	_, end, err := n.keyAt(c - 1)
	if err != nil {
		return oid.NilPage, err
	}
	if end+4 > len(n.b) {
		return oid.NilPage, corrupt(n.id, "cell %d truncated", c-1)
	}
	return oid.PageID(binary.BigEndian.Uint32(n.b[end:])), nil
}

// cellEnd returns the offset just past cell i.
func (n nodeView) cellEnd(i int) (int, error) {
	_, end, err := n.keyAt(i)
	if err != nil {
		return 0, err
	}
	if !n.leaf() {
		if end+4 > len(n.b) {
			return 0, corrupt(n.id, "cell %d truncated", i)
		}
		return end + 4, nil
	}
	if end >= len(n.b) {
		return 0, corrupt(n.id, "cell %d truncated", i)
	}
	_, end, err = n.span(end)
	return end, err
}

// search returns the index of key (found) or its insertion point.
func (n nodeView) search(key []byte) (int, bool, error) {
	lo, hi := 0, n.count()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		k, err := n.key(mid)
		if err != nil {
			return 0, false, err
		}
		switch c := bytes.Compare(k, key); {
		case c < 0:
			lo = mid + 1
		case c == 0:
			return mid, true, nil
		default:
			hi = mid
		}
	}
	return lo, false, nil
}

// childIndex returns which child of an internal node holds key: cell i's
// key is the smallest key reachable through child i+1.
func (n nodeView) childIndex(key []byte) (int, error) {
	i, found, err := n.search(key)
	if found {
		i++
	}
	return i, err
}

// covers reports whether key lies between the leaf's first and last
// keys, so that if present it is in this leaf.
func (n nodeView) covers(key []byte) bool {
	c := n.count()
	if c == 0 {
		return false
	}
	first, err := n.key(0)
	if err != nil || bytes.Compare(key, first) < 0 {
		return false
	}
	last, err := n.key(c - 1)
	return err == nil && bytes.Compare(key, last) <= 0
}

func leafCellLen(key, val []byte) int {
	return uvarintLen(len(key)) + len(key) + uvarintLen(len(val)) + len(val)
}

func innerCellLen(key []byte) int { return uvarintLen(len(key)) + len(key) + 4 }

// putLeafCell encodes a leaf cell at the start of b.
func putLeafCell(b, key, val []byte) {
	off := binary.PutUvarint(b, uint64(len(key)))
	off += copy(b[off:], key)
	off += binary.PutUvarint(b[off:], uint64(len(val)))
	copy(b[off:], val)
}

// putInnerCell encodes an internal cell at the start of b.
func putInnerCell(b, key []byte, child oid.PageID) {
	off := binary.PutUvarint(b, uint64(len(key)))
	off += copy(b[off:], key)
	binary.BigEndian.PutUint32(b[off:], uint32(child))
}

// reserve claims size bytes below cellStart and a slot at index i, and
// returns the cell's bytes. The caller has checked the gap.
func (n nodeView) reserve(i, size int) []byte {
	off := n.cellStart() - size
	n.setCellStart(off)
	c := n.count()
	base := nodeHdr + slotSize*i
	copy(n.b[base+slotSize:nodeHdr+slotSize*(c+1)], n.b[base:nodeHdr+slotSize*c])
	n.setSlot(i, off)
	n.setCount(c + 1)
	return n.b[off : off+size]
}

// appendCell adds an encoded cell after every existing cell (splits
// fill pages in key order).
func (n nodeView) appendCell(c []byte) error {
	if n.gap() < len(c)+slotSize {
		return corrupt(n.id, "cells overflow the page")
	}
	copy(n.reserve(n.count(), len(c)), c)
	return nil
}

// removeSlot drops cell i from the slot directory. Its bytes become
// garbage, except when it is the lowest cell: then cellStart moves up
// past it and the gap gets them back at once.
func (n nodeView) removeSlot(i int) error {
	off := n.slot(i)
	if off == n.cellStart() {
		end, err := n.cellEnd(i)
		if err != nil {
			return err
		}
		n.setCellStart(end)
	}
	c := n.count()
	base := nodeHdr + slotSize*i
	copy(n.b[base:], n.b[base+slotSize:nodeHdr+slotSize*c])
	n.setCount(c - 1)
	return nil
}

// scratch holds page-sized buffers for compactions and splits.
var scratch = sync.Pool{New: func() any { return new([]byte) }}

func getScratch(n int) *[]byte {
	bp := scratch.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// compact rewrites the live cells tightly against the end of the body,
// in slot order, so the garbage rejoins the gap.
func (n nodeView) compact() error {
	bp := getScratch(len(n.b))
	defer scratch.Put(bp)
	src := nodeView{id: n.id, b: *bp}
	copy(src.b, n.b)
	top := len(n.b)
	for i := range src.count() {
		end, err := src.cellEnd(i)
		if err != nil {
			return err
		}
		off := src.slot(i)
		top -= end - off
		if top < nodeHdr+slotSize*src.count() {
			return corrupt(n.id, "cells overflow the page")
		}
		copy(n.b[top:], src.b[off:end])
		n.setSlot(i, top)
	}
	n.setCellStart(top)
	return nil
}

// --- fetching nodes ---

// page fetches and validates node id for a writer.
func (t *Tree) page(id oid.PageID) (*storage.Page, nodeView, error) {
	if id == oid.NilPage || uint64(id) >= t.st.NumPages() {
		return nil, nodeView{}, corrupt(id, "child link out of range")
	}
	p, err := t.st.GetTyped(id, storage.PageBTree)
	if err != nil {
		return nil, nodeView{}, err
	}
	n := nodeView{id: id, b: p.Body()}
	return p, n, n.validate()
}

// fetch fetches node id for reading, through the memo on read-only
// handles.
func (t *Tree) fetch(id oid.PageID) (*storage.Page, nodeView, error) {
	if t.ro {
		for _, p := range t.memo {
			if p != nil && p.ID == id {
				return p, nodeView{id: id, b: p.Body()}, nil
			}
		}
	}
	p, n, err := t.page(id)
	if err != nil {
		return nil, nodeView{}, err
	}
	if t.ro {
		// Round-robin, passing over the root: every descent starts there.
		if m := t.memo[t.hand]; m != nil && m.ID == t.root {
			t.hand = (t.hand + 1) % memoSlots
		}
		t.memo[t.hand] = p
		t.hand = (t.hand + 1) % memoSlots
	}
	return p, n, nil
}

func (t *Tree) node(id oid.PageID) (nodeView, error) {
	_, n, err := t.fetch(id)
	return n, err
}

// touch prepares p for mutation and returns the writable body.
func (t *Tree) touch(p *storage.Page) nodeView {
	p = t.st.Touch(p)
	return nodeView{id: p.ID, b: p.Body()}
}

// --- lookup ---

// descend returns the leaf a search for key ends in; a nil key goes to
// the leftmost leaf.
func (t *Tree) descend(key []byte) (*storage.Page, nodeView, error) {
	id := t.root
	for range maxDepth {
		p, n, err := t.fetch(id)
		if err != nil || n.leaf() {
			return p, n, err
		}
		c := 0
		if key != nil {
			if c, err = n.childIndex(key); err != nil {
				return nil, nodeView{}, err
			}
		}
		if id, err = n.child(c); err != nil {
			return nil, nodeView{}, err
		}
	}
	return nil, nodeView{}, corrupt(id, "tree deeper than %d", maxDepth)
}

// leafFor returns the leaf that holds key if it is present: the
// remembered leaf when it covers key, otherwise the end of a descent,
// which a read-only handle then remembers.
func (t *Tree) leafFor(key []byte) (nodeView, error) {
	if t.last != nil {
		if n := (nodeView{id: t.last.ID, b: t.last.Body()}); n.covers(key) {
			return n, nil
		}
	}
	p, n, err := t.descend(key)
	if err == nil && t.ro {
		t.last = p
	}
	return n, err
}

// Get returns the value for key and whether it is present. The returned
// slice is a copy.
func (t *Tree) Get(key []byte) ([]byte, bool, error) {
	n, err := t.leafFor(key)
	if err != nil {
		return nil, false, err
	}
	i, found, err := n.search(key)
	if err != nil || !found {
		return nil, false, err
	}
	_, v, err := n.leafCell(i)
	if err != nil {
		return nil, false, err
	}
	return append([]byte{}, v...), true, nil
}

// --- insert ---

// Put inserts or replaces key's value.
func (t *Tree) Put(key, val []byte) error {
	if len(key) > t.maxKey() {
		return fmt.Errorf("%w: %d > %d", ErrKeyTooLarge, len(key), t.maxKey())
	}
	if len(val) > t.maxVal() {
		return fmt.Errorf("%w: %d > %d", ErrValTooLarge, len(val), t.maxVal())
	}
	sep, right, err := t.insert(t.root, key, val, true, 0)
	if err != nil || right == oid.NilPage {
		return err
	}
	// Root split: grow the tree by one level.
	p, err := t.st.Allocate(storage.PageBTree)
	if err != nil {
		return err
	}
	n := nodeView{id: p.ID, b: p.Body()}
	n.init(kindInternal, t.root)
	putInnerCell(n.reserve(0, innerCellLen(sep)), sep, right)
	t.root = p.ID
	return nil
}

// insert descends into id; on a split it returns the separator and the
// new right sibling for the caller to absorb. rightmost reports that id
// is the last node of its level.
func (t *Tree) insert(id oid.PageID, key, val []byte, rightmost bool, depth int) ([]byte, oid.PageID, error) {
	if depth > maxDepth {
		return nil, oid.NilPage, corrupt(id, "tree deeper than %d", maxDepth)
	}
	p, n, err := t.page(id)
	if err != nil {
		return nil, oid.NilPage, err
	}
	if n.leaf() {
		i, found, err := n.search(key)
		if err != nil {
			return nil, oid.NilPage, err
		}
		size := leafCellLen(key, val)
		if found {
			end, err := n.cellEnd(i)
			if err != nil {
				return nil, oid.NilPage, err
			}
			n = t.touch(p)
			if off := n.slot(i); end-off == size {
				putLeafCell(n.b[off:], key, val)
				return nil, oid.NilPage, nil
			}
			if err := n.removeSlot(i); err != nil {
				return nil, oid.NilPage, err
			}
		} else {
			n = t.touch(p)
		}
		enc := func(b []byte) { putLeafCell(b, key, val) }
		return t.place(n, i, size, enc, rightmost && i == n.count())
	}
	c, err := n.childIndex(key)
	if err != nil {
		return nil, oid.NilPage, err
	}
	child, err := n.child(c)
	if err != nil {
		return nil, oid.NilPage, err
	}
	sep, right, err := t.insert(child, key, val, rightmost && c == n.count(), depth+1)
	if err != nil || right == oid.NilPage {
		return nil, oid.NilPage, err
	}
	// The child split: its new right sibling becomes child c+1, that is
	// cell c.
	n = t.touch(p)
	enc := func(b []byte) { putInnerCell(b, sep, right) }
	return t.place(n, c, innerCellLen(sep), enc, rightmost && c == n.count())
}

// place stores a new cell of size bytes at index i of the writable node
// n; enc encodes it into the bytes it is given. The page is compacted
// when the gap alone is too small, and split when even that is not
// enough.
func (t *Tree) place(n nodeView, i, size int, enc func([]byte), appending bool) ([]byte, oid.PageID, error) {
	if n.gap() < size+slotSize {
		if err := n.compact(); err != nil {
			return nil, oid.NilPage, err
		}
		if n.gap() < size+slotSize {
			return t.split(n, i, size, enc, appending)
		}
	}
	enc(n.reserve(i, size))
	return nil, oid.NilPage, nil
}

// split spreads n's cells plus the new cell (size bytes at index i,
// written by enc) over n and a fresh right sibling, and returns the
// separator and the sibling. The cut leaves both halves about the same
// bytes; when the new cell lands at the end of the last node of its
// level (sequential keys) the old cells all stay and the new one starts
// the sibling. In a leaf the separator is the sibling's first key. In an
// internal node the cell at the cut moves up: its key is the separator
// and its child the sibling's leftmost child.
func (t *Tree) split(n nodeView, i, size int, enc func([]byte), appending bool) ([]byte, oid.PageID, error) {
	bp := getScratch(len(n.b) + size)
	defer scratch.Put(bp)
	src := nodeView{id: n.id, b: (*bp)[:len(n.b)]}
	copy(src.b, n.b)
	enc((*bp)[len(n.b):])
	count := src.count()
	// cell returns the j-th cell in key order, the new one included.
	cell := func(j int) ([]byte, error) {
		if j == i {
			return (*bp)[len(n.b):], nil
		}
		if j > i {
			j--
		}
		end, err := src.cellEnd(j)
		if err != nil {
			return nil, err
		}
		return src.b[src.slot(j):end], nil
	}
	total := 0
	for j := range count + 1 {
		c, err := cell(j)
		if err != nil {
			return nil, oid.NilPage, err
		}
		total += len(c) + slotSize
	}
	cut := count
	if !appending {
		for j, acc := 0, 0; j <= count; j++ {
			c, _ := cell(j)
			if acc += len(c) + slotSize; 2*acc >= total {
				cut = j
				break
			}
		}
		if src.leaf() { // cells [0, cut] stay, so both halves are non-empty
			cut = min(cut+1, count)
		}
	}
	mid, _ := cell(cut)
	sep, end, err := nodeView{id: n.id, b: mid}.span(0)
	if err != nil {
		return nil, oid.NilPage, err
	}
	rp, err := t.st.Allocate(storage.PageBTree)
	if err != nil {
		return nil, oid.NilPage, err
	}
	r := nodeView{id: rp.ID, b: rp.Body()}
	if src.leaf() {
		r.init(kindLeaf, src.link())
		n.init(kindLeaf, rp.ID)
	} else {
		r.init(kindInternal, oid.PageID(binary.BigEndian.Uint32(mid[end:])))
		n.init(kindInternal, src.link())
	}
	for j := range count + 1 {
		if j == cut && !src.leaf() {
			continue
		}
		dst := n
		if j >= cut {
			dst = r
		}
		c, _ := cell(j)
		if err := dst.appendCell(c); err != nil {
			return nil, oid.NilPage, err
		}
	}
	return append([]byte(nil), sep...), rp.ID, nil
}

// --- delete ---

// Delete removes key, reporting whether it was present. Empty leaves are
// pruned from their parents; an internal root with a single child is
// collapsed.
func (t *Tree) Delete(key []byte) (bool, error) {
	deleted, _, err := t.remove(t.root, key, 0)
	if err != nil || !deleted {
		return deleted, err
	}
	// Collapse trivial root chain.
	for {
		_, n, err := t.page(t.root)
		if err != nil {
			return true, err
		}
		if n.leaf() || n.count() != 0 || n.link() == oid.NilPage {
			return true, nil
		}
		old := t.root
		t.root = n.link()
		if err := t.st.Free(old); err != nil {
			return true, err
		}
	}
}

// remove deletes key under id, returning (deleted, nowEmpty).
func (t *Tree) remove(id oid.PageID, key []byte, depth int) (bool, bool, error) {
	if depth > maxDepth {
		return false, false, corrupt(id, "tree deeper than %d", maxDepth)
	}
	p, n, err := t.page(id)
	if err != nil {
		return false, false, err
	}
	if n.leaf() {
		i, found, err := n.search(key)
		if err != nil || !found {
			return false, false, err
		}
		n = t.touch(p)
		if err := n.removeSlot(i); err != nil {
			return false, false, err
		}
		return true, n.count() == 0, nil
	}
	c, err := n.childIndex(key)
	if err != nil {
		return false, false, err
	}
	child, err := n.child(c)
	if err != nil {
		return false, false, err
	}
	deleted, childEmpty, err := t.remove(child, key, depth+1)
	if err != nil || !childEmpty {
		return deleted, false, err
	}
	// Prune the empty child, repairing the leaf chain around it first.
	if err := t.unlinkLeafChain(child); err != nil {
		return true, false, err
	}
	n = t.touch(p)
	switch {
	case c > 0:
		err = n.removeSlot(c - 1)
	case n.count() == 0:
		// The last child went; the caller prunes this node in turn.
		n.setLink(oid.NilPage)
	default:
		var next oid.PageID
		if next, err = n.child(1); err == nil {
			n.setLink(next)
			err = n.removeSlot(0)
		}
	}
	if err != nil {
		return true, false, err
	}
	if err := t.st.Free(child); err != nil {
		return true, false, err
	}
	return true, n.count() == 0 && n.link() == oid.NilPage, nil
}

// unlinkLeafChain repairs the leaf chain around victim before it is
// pruned. Only needed when the victim is a leaf; its predecessor may
// live under a different subtree, so we walk from the leftmost leaf.
func (t *Tree) unlinkLeafChain(victim oid.PageID) error {
	_, v, err := t.page(victim)
	if err != nil || !v.leaf() {
		return err
	}
	cur, err := t.leftmostLeaf()
	if err != nil {
		return err
	}
	for steps := uint64(0); cur != oid.NilPage && cur != victim; steps++ {
		if steps > t.st.NumPages() {
			return corrupt(cur, "leaf chain does not end")
		}
		p, n, err := t.page(cur)
		if err != nil {
			return err
		}
		if n.link() == victim {
			t.touch(p).setLink(v.link())
			return nil
		}
		cur = n.link()
	}
	return nil // victim is the leftmost leaf; nothing points at it
}

func (t *Tree) leftmostLeaf() (oid.PageID, error) {
	_, n, err := t.descend(nil)
	return n.id, err
}

// --- iteration ---

// Ascend calls fn for every key in [from, to) in ascending order; nil
// from means from the smallest key, nil to means to the end. Iteration
// stops early if fn returns false. Key and value slices passed to fn
// point into the page and must be copied if retained.
//
// fn must not mutate the tree.
func (t *Tree) Ascend(from, to []byte, fn func(key, val []byte) (bool, error)) error {
	_, n, err := t.descend(from)
	if err != nil {
		return err
	}
	start := 0
	if from != nil {
		if start, _, err = n.search(from); err != nil {
			return err
		}
	}
	for {
		for i := start; i < n.count(); i++ {
			k, v, err := n.leafCell(i)
			if err != nil {
				return err
			}
			if to != nil && bytes.Compare(k, to) >= 0 {
				return nil
			}
			if ok, err := fn(k, v); err != nil || !ok {
				return err
			}
		}
		next := n.link()
		if next == oid.NilPage {
			return nil
		}
		var last []byte
		if c := n.count(); c > 0 {
			if last, err = n.key(c - 1); err != nil {
				return err
			}
		}
		if n, err = t.node(next); err != nil {
			return err
		}
		// Keys rise strictly along the chain and only a root leaf is
		// empty: a chain that loops back breaks one or the other.
		if !n.leaf() || n.count() == 0 {
			return corrupt(next, "leaf chain reaches an empty or internal node")
		}
		if last != nil {
			first, err := n.key(0)
			if err != nil {
				return err
			}
			if bytes.Compare(first, last) <= 0 {
				return corrupt(next, "leaf chain out of key order")
			}
		}
		start = 0
	}
}

// AscendPrefix iterates all keys with the given prefix in ascending
// order.
func (t *Tree) AscendPrefix(prefix []byte, fn func(key, val []byte) (bool, error)) error {
	return t.Ascend(prefix, prefixEnd(prefix), fn)
}

// prefixEnd returns the smallest key greater than every key with the
// prefix, or nil if the prefix is all 0xFF.
func prefixEnd(prefix []byte) []byte {
	end := append([]byte(nil), prefix...)
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] != 0xFF {
			end[i]++
			return end[:i+1]
		}
	}
	return nil
}

// cloneKV copies a key and value into one allocation.
func cloneKV(k, v []byte) ([]byte, []byte) {
	kv := make([]byte, len(k)+len(v))
	copy(kv, k)
	copy(kv[len(k):], v)
	return kv[:len(k):len(k)], kv[len(k):]
}

// SeekLE returns the largest key ≤ key and its value, or ok=false when
// every key in the tree is greater. It runs top-down in O(log n). The
// returned slices are copies.
func (t *Tree) SeekLE(key []byte) (k, v []byte, ok bool, err error) {
	return t.seekLE(t.root, key, 0)
}

func (t *Tree) seekLE(id oid.PageID, key []byte, depth int) ([]byte, []byte, bool, error) {
	if depth > maxDepth {
		return nil, nil, false, corrupt(id, "tree deeper than %d", maxDepth)
	}
	n, err := t.node(id)
	if err != nil {
		return nil, nil, false, err
	}
	if n.leaf() {
		i, found, err := n.search(key)
		if err != nil {
			return nil, nil, false, err
		}
		if !found {
			i--
		}
		if i < 0 {
			return nil, nil, false, nil
		}
		k, v, err := n.leafCell(i)
		if err != nil {
			return nil, nil, false, err
		}
		k, v = cloneKV(k, v)
		return k, v, true, nil
	}
	// Try the child that would contain key, then fall back leftward: the
	// predecessor, if any, is the maximum of the nearest non-empty
	// subtree to the left.
	c, err := n.childIndex(key)
	if err != nil {
		return nil, nil, false, err
	}
	for ; c >= 0; c-- {
		child, err := n.child(c)
		if err != nil {
			return nil, nil, false, err
		}
		k, v, ok, err := t.seekLE(child, key, depth+1)
		if err != nil || ok {
			return k, v, ok, err
		}
	}
	return nil, nil, false, nil
}

// Max returns the largest key in the tree, or ok=false when empty. The
// returned slices are copies.
func (t *Tree) Max() (k, v []byte, ok bool, err error) {
	id := t.root
	for range maxDepth {
		n, err := t.node(id)
		if err != nil {
			return nil, nil, false, err
		}
		c := n.count()
		if n.leaf() {
			if c == 0 {
				return nil, nil, false, nil
			}
			k, v, err := n.leafCell(c - 1)
			if err != nil {
				return nil, nil, false, err
			}
			k, v = cloneKV(k, v)
			return k, v, true, nil
		}
		if id, err = n.child(c); err != nil {
			return nil, nil, false, err
		}
	}
	return nil, nil, false, corrupt(id, "tree deeper than %d", maxDepth)
}

// Len counts the keys in the tree (O(n); used by tests and tools).
func (t *Tree) Len() (int, error) {
	n := 0
	err := t.Ascend(nil, nil, func(_, _ []byte) (bool, error) {
		n++
		return true, nil
	})
	return n, err
}

// Check validates the tree's structure and returns a descriptive error
// on the first violation: each node's layout (kind byte, slot directory
// ending at or before the cell area, every cell inside the page and no
// two overlapping), keys strictly increasing within each node and inside
// the bounds the separators above them set, every leaf at one depth,
// and a leaf chain that links the leaves in key order. Used by tests and
// odedump.
func (t *Tree) Check() error {
	c := checker{t: t, leafDepth: -1}
	if err := c.walk(t.root, nil, nil, 0); err != nil {
		return err
	}
	if c.prevLink != oid.NilPage {
		return corrupt(c.prevLeaf, "last leaf links to page %d", c.prevLink)
	}
	return nil
}

type checker struct {
	t         *Tree
	leafDepth int
	prevLeaf  oid.PageID // last leaf visited, in key order
	prevLink  oid.PageID // its chain link
	cells     [][2]int   // scratch: [offset, end) of each cell
}

// walk checks the subtree at id, whose keys must lie in [lo, hi) (nil
// bounds are open).
func (c *checker) walk(id oid.PageID, lo, hi []byte, depth int) error {
	if depth > maxDepth {
		return corrupt(id, "tree deeper than %d", maxDepth)
	}
	n, err := c.t.node(id)
	if err != nil {
		return err
	}
	if err := c.layout(n); err != nil {
		return err
	}
	var prev []byte
	for i := range n.count() {
		k, _ := n.key(i)
		switch {
		case i > 0 && bytes.Compare(prev, k) >= 0:
			return corrupt(id, "order violation: %q !< %q", prev, k)
		case lo != nil && bytes.Compare(k, lo) < 0:
			return corrupt(id, "key %q below its separator %q", k, lo)
		case hi != nil && bytes.Compare(k, hi) >= 0:
			return corrupt(id, "key %q not below its separator %q", k, hi)
		}
		prev = k
	}
	if n.leaf() {
		if c.leafDepth < 0 {
			c.leafDepth = depth
		} else if depth != c.leafDepth {
			return corrupt(id, "leaf at depth %d, others at %d", depth, c.leafDepth)
		}
		if c.prevLeaf != oid.NilPage && c.prevLink != id {
			return corrupt(c.prevLeaf, "leaf chain links to page %d, next leaf is %d", c.prevLink, id)
		}
		c.prevLeaf, c.prevLink = id, n.link()
		return nil
	}
	for i := 0; i <= n.count(); i++ {
		clo, chi := lo, hi
		if i > 0 {
			clo, _ = n.key(i - 1)
		}
		if i < n.count() {
			chi, _ = n.key(i)
		}
		child, err := n.child(i)
		if err != nil {
			return err
		}
		if err := c.walk(child, clo, chi, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// layout checks that every cell parses inside the cell area and that no
// two cells overlap.
func (c *checker) layout(n nodeView) error {
	cells := c.cells[:0]
	for i := range n.count() {
		end, err := n.cellEnd(i)
		if err != nil {
			return err
		}
		cells = append(cells, [2]int{n.slot(i), end})
	}
	slices.SortFunc(cells, func(a, b [2]int) int { return a[0] - b[0] })
	for i := 1; i < len(cells); i++ {
		if cells[i][0] < cells[i-1][1] {
			return corrupt(n.id, "cells at %d and %d overlap", cells[i-1][0], cells[i][0])
		}
	}
	c.cells = cells
	return nil
}
