package storage

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ode/internal/codec"
	"ode/internal/oid"
)

// Record cell encoding inside slotted pages:
//
//	inline:   flags=0x00 | uvarint payloadLen | payload | zero pad to ≥ minCell
//	overflow: flags=0x01 | uvarint totalLen  | u32 firstOverflowPage | pad
//
// Every cell is at least minCell bytes so an in-place update can always
// switch an inline record to the (small) overflow representation without
// moving the record: RIDs are stable for the record's lifetime, which the
// object table and version index rely on.
const (
	cellInline   = 0x00
	cellOverflow = 0x01
	minCell      = 16
)

// Overflow page body layout: [0:4] next page (0 = end), [4:6] chunk
// length, [6:] chunk bytes.
const ovHeader = 6

// ErrNoRecord reports a read of a deleted or never-written record.
var ErrNoRecord = errors.New("storage: no such record")

// HeapState is the heap's cross-transaction space-hunting state. It is
// advisory only (every entry is re-verified before use, and pageWithSpace
// self-heals stale entries), so the engine shares one HeapState across
// its write transactions and hands fresh ones to readers.
type HeapState struct {
	// space caches known free bytes of slotted pages discovered this
	// session (populated by inserts, updates, deletes, and the sweep).
	space map[oid.PageID]int
	// sweep is the next page id to examine when hunting for space not in
	// the cache; once it passes the end of the file it stays exhausted
	// (new space knowledge then only arrives via deletes).
	sweep     oid.PageID
	sweepDone bool
}

// NewHeapState returns empty heap space-hunting state.
func NewHeapState() *HeapState {
	return &HeapState{space: make(map[oid.PageID]int), sweep: 1}
}

// Rewind restarts the sweep from the first page, keeping the cached
// entries; the sweep refreshes each entry it passes.
func (hs *HeapState) Rewind() { hs.sweep, hs.sweepDone = 1, false }

// Heap is the record heap: variable-length records addressed by stable
// RIDs, with overflow chains for records larger than a page. One store
// has exactly one heap (B+trees use their own page type); each
// transaction binds it through its own TxView.
type Heap struct {
	st *TxView
	hs *HeapState
}

// NewHeap returns a heap over the transaction view st. hs carries the
// space cache across transactions; nil means start fresh (fine for
// readers and tests).
func NewHeap(st *TxView, hs *HeapState) *Heap {
	if hs == nil {
		hs = NewHeapState()
	}
	return &Heap{st: st, hs: hs}
}

// maxInlinePayload returns the largest payload storable inline.
func (h *Heap) maxInlinePayload() int {
	// flags + worst-case 5-byte uvarint length prefix.
	return MaxCell(h.st.PageSize()) - 6
}

func encodeInline(data []byte) []byte {
	w := codec.NewWriter(1 + 5 + len(data) + minCell)
	w.U8(cellInline)
	w.UVarint(uint64(len(data)))
	w.Raw(data)
	for w.Len() < minCell {
		w.U8(0)
	}
	return w.Bytes()
}

func encodeOverflow(totalLen int, first oid.PageID) []byte {
	w := codec.NewWriter(minCell)
	w.U8(cellOverflow)
	w.UVarint(uint64(totalLen))
	w.U32(uint32(first))
	for w.Len() < minCell {
		w.U8(0)
	}
	return w.Bytes()
}

// Insert stores data as a new record and returns its RID.
func (h *Heap) Insert(data []byte) (oid.RID, error) {
	cell, err := h.buildCell(data)
	if err != nil {
		return oid.NilRID, err
	}
	p, err := h.pageWithSpace(len(cell))
	if err != nil {
		return oid.NilRID, err
	}
	p = h.st.Touch(p)
	slot, err := SlottedInsert(p, cell)
	if err != nil {
		return oid.NilRID, fmt.Errorf("storage: insert on page %d: %w", p.ID, err)
	}
	h.hs.space[p.ID] = SlottedFreeSpace(p)
	return oid.RID{Page: p.ID, Slot: slot}, nil
}

// buildCell produces the cell bytes for data, writing an overflow chain
// if needed.
func (h *Heap) buildCell(data []byte) ([]byte, error) {
	if len(data) <= h.maxInlinePayload() {
		return encodeInline(data), nil
	}
	first, err := h.writeOverflow(data)
	if err != nil {
		return nil, err
	}
	return encodeOverflow(len(data), first), nil
}

func (h *Heap) writeOverflow(data []byte) (oid.PageID, error) {
	chunkCap := h.st.PageSize() - HeaderSize - ovHeader
	var first oid.PageID
	var prev *Page
	for off := 0; off < len(data); off += chunkCap {
		end := off + chunkCap
		if end > len(data) {
			end = len(data)
		}
		p, err := h.st.Allocate(PageOverflow)
		if err != nil {
			return oid.NilPage, err
		}
		body := p.Body()
		binary.BigEndian.PutUint32(body[0:4], 0)
		binary.BigEndian.PutUint16(body[4:6], uint16(end-off))
		copy(body[ovHeader:], data[off:end])
		if prev != nil {
			prev = h.st.Touch(prev)
			binary.BigEndian.PutUint32(prev.Body()[0:4], uint32(p.ID))
		} else {
			first = p.ID
		}
		prev = p
	}
	return first, nil
}

func (h *Heap) readOverflow(first oid.PageID, total int) ([]byte, error) {
	out := make([]byte, 0, total)
	id := first
	for id != oid.NilPage {
		p, err := h.st.GetTyped(id, PageOverflow)
		if err != nil {
			return nil, err
		}
		body := p.Body()
		n := int(binary.BigEndian.Uint16(body[4:6]))
		if ovHeader+n > len(body) {
			return nil, fmt.Errorf("storage: corrupt overflow page %d (chunk %d)", id, n)
		}
		out = append(out, body[ovHeader:ovHeader+n]...)
		id = oid.PageID(binary.BigEndian.Uint32(body[0:4]))
	}
	if len(out) != total {
		return nil, fmt.Errorf("storage: overflow chain length %d, want %d", len(out), total)
	}
	return out, nil
}

func (h *Heap) freeOverflow(first oid.PageID) error {
	id := first
	for id != oid.NilPage {
		p, err := h.st.GetTyped(id, PageOverflow)
		if err != nil {
			return err
		}
		next := oid.PageID(binary.BigEndian.Uint32(p.Body()[0:4]))
		if err := h.st.Free(id); err != nil {
			return err
		}
		id = next
	}
	return nil
}

// decodeCell parses a cell, returning the payload. For overflow cells it
// reads the chain.
func (h *Heap) decodeCell(cell []byte) ([]byte, error) {
	r := codec.NewReader(cell)
	flags := r.U8()
	n := int(r.UVarint())
	if r.Err() != nil {
		return nil, fmt.Errorf("storage: corrupt cell: %w", r.Err())
	}
	switch flags {
	case cellInline:
		if r.Remaining() < n {
			return nil, fmt.Errorf("storage: corrupt inline cell: %d < %d", r.Remaining(), n)
		}
		out := make([]byte, n)
		copy(out, r.Raw(n))
		return out, nil
	case cellOverflow:
		first := oid.PageID(r.U32())
		if r.Err() != nil {
			return nil, fmt.Errorf("storage: corrupt overflow cell: %w", r.Err())
		}
		return h.readOverflow(first, n)
	default:
		return nil, fmt.Errorf("storage: unknown cell flags %#x", flags)
	}
}

// cellOverflowHead returns the overflow chain head if the cell is an
// overflow cell, else NilPage.
func cellOverflowHead(cell []byte) oid.PageID {
	if len(cell) == 0 || cell[0] != cellOverflow {
		return oid.NilPage
	}
	r := codec.NewReader(cell[1:])
	_ = r.UVarint()
	return oid.PageID(r.U32())
}

// Read returns a copy of the record at rid.
func (h *Heap) Read(rid oid.RID) ([]byte, error) {
	p, err := h.st.GetTyped(rid.Page, PageSlotted)
	if err != nil {
		return nil, err
	}
	cell, err := SlottedRead(p, rid.Slot)
	if err != nil {
		return nil, fmt.Errorf("%w: %v (%v)", ErrNoRecord, rid, err)
	}
	return h.decodeCell(cell)
}

// Update replaces the record at rid, preserving the RID.
func (h *Heap) Update(rid oid.RID, data []byte) error {
	p, err := h.st.GetTyped(rid.Page, PageSlotted)
	if err != nil {
		return err
	}
	old, err := SlottedRead(p, rid.Slot)
	if err != nil {
		return fmt.Errorf("%w: %v (%v)", ErrNoRecord, rid, err)
	}
	oldChain := cellOverflowHead(old)

	p = h.st.Touch(p)
	// Try inline first when it fits the page; otherwise use overflow.
	if len(data) <= h.maxInlinePayload() {
		cell := encodeInline(data)
		err = SlottedUpdate(p, rid.Slot, cell)
		if err == nil {
			h.hs.space[p.ID] = SlottedFreeSpace(p)
			if oldChain != oid.NilPage {
				return h.freeOverflow(oldChain)
			}
			return nil
		}
		if !errors.Is(err, ErrPageFull) {
			return err
		}
		// Fall through to the overflow representation, which always fits
		// because every cell is at least minCell bytes.
	}
	first, err := h.writeOverflow(data)
	if err != nil {
		return err
	}
	cell := encodeOverflow(len(data), first)
	if err := SlottedUpdate(p, rid.Slot, cell); err != nil {
		return fmt.Errorf("storage: overflow cell update on page %d: %w", p.ID, err)
	}
	h.hs.space[p.ID] = SlottedFreeSpace(p)
	if oldChain != oid.NilPage {
		return h.freeOverflow(oldChain)
	}
	return nil
}

// Delete removes the record at rid and frees any overflow chain.
func (h *Heap) Delete(rid oid.RID) error {
	p, err := h.st.GetTyped(rid.Page, PageSlotted)
	if err != nil {
		return err
	}
	cell, err := SlottedRead(p, rid.Slot)
	if err != nil {
		return fmt.Errorf("%w: %v (%v)", ErrNoRecord, rid, err)
	}
	chain := cellOverflowHead(cell)
	p = h.st.Touch(p)
	if err := SlottedDelete(p, rid.Slot); err != nil {
		return err
	}
	h.hs.space[p.ID] = SlottedFreeSpace(p)
	if chain != oid.NilPage {
		return h.freeOverflow(chain)
	}
	return nil
}

// pageWithSpace finds or allocates a slotted page with at least need
// bytes of cell space.
func (h *Heap) pageWithSpace(need int) (*Page, error) {
	for id, free := range h.hs.space {
		if free < need {
			continue
		}
		p, err := h.st.GetTyped(id, PageSlotted)
		if err != nil {
			// The cache can go stale across transaction aborts (the page
			// may have been rolled out of existence or repurposed);
			// self-heal by dropping the entry.
			delete(h.hs.space, id)
			continue
		}
		// Re-verify: the cached value may also be stale after an abort.
		if got := SlottedFreeSpace(p); got >= need {
			return p, nil
		} else {
			h.hs.space[id] = got
		}
	}
	if p, err := h.sweepForSpace(need); err != nil {
		return nil, err
	} else if p != nil {
		return p, nil
	}
	return h.st.Allocate(PageSlotted)
}

// sweepForSpace scans up to sweepBudget not-yet-seen pages per call,
// recording their free space, and returns the first with enough room.
func (h *Heap) sweepForSpace(need int) (*Page, error) {
	const sweepBudget = 16
	if h.hs.sweepDone {
		return nil, nil
	}
	for i := 0; i < sweepBudget; i++ {
		if uint64(h.hs.sweep) >= h.st.NumPages() {
			h.hs.sweepDone = true
			return nil, nil
		}
		id := h.hs.sweep
		h.hs.sweep++
		p, err := h.st.Get(id)
		if err != nil {
			return nil, err
		}
		if p.Type() != PageSlotted {
			continue
		}
		free := SlottedFreeSpace(p)
		h.hs.space[id] = free
		if free >= need {
			return p, nil
		}
	}
	return nil, nil
}

// Scan calls fn for every record in the heap in (page, slot) order,
// stopping early if fn returns false. fn receives the decoded payload,
// which it must not retain.
func (h *Heap) Scan(fn func(rid oid.RID, data []byte) (bool, error)) error {
	n := h.st.NumPages()
	for pid := uint64(1); pid < n; pid++ {
		p, err := h.st.Get(oid.PageID(pid))
		if err != nil {
			return err
		}
		if p.Type() != PageSlotted {
			continue
		}
		var slots []uint16
		SlottedSlots(p, func(slot uint16, _ []byte) bool {
			slots = append(slots, slot)
			return true
		})
		for _, slot := range slots {
			cell, err := SlottedRead(p, slot)
			if err != nil {
				return err
			}
			data, err := h.decodeCell(cell)
			if err != nil {
				return err
			}
			ok, err := fn(oid.RID{Page: oid.PageID(pid), Slot: slot}, data)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
	}
	return nil
}
