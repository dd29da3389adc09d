package storage

import (
	"errors"
	"fmt"

	"ode/internal/codec"
	"ode/internal/oid"
)

// Magic identifies an Ode store file.
const Magic uint64 = 0x4F44455245505231 // "ODEREP R1"

// FormatVersion is bumped on incompatible on-disk changes. Version 2
// stores B+tree nodes as slotted pages (internal/btree).
const FormatVersion uint32 = 2

// NumRoots is the number of named structure roots the superblock holds;
// the engine assigns meanings (object table, indexes, catalog, ...).
const NumRoots = 8

// NumCounters is the number of persistent monotonic counters (oid, vid,
// stamp, txid, ...).
const NumCounters = 8

// ErrBadMagic reports a file that is not an Ode store.
var ErrBadMagic = errors.New("storage: bad magic (not an ode store)")

// ErrBadVersion reports an incompatible store format version.
var ErrBadVersion = errors.New("storage: incompatible format version")

// super is the decoded superblock. It is cached by the Store and
// re-marshalled into page 0 whenever mutated.
type super struct {
	pageSize uint32
	nPages   uint64 // logical page count (may exceed physical until flush)
	freeHead oid.PageID
	roots    [NumRoots]oid.PageID
	counters [NumCounters]uint64
	ckptLSN  oid.LSN
}

// Fixed layout offsets within the page body for the peek in openStore:
// magic at body[0:8], version at body[8:12], pageSize at body[12:16].
func (s *super) marshalInto(p *Page) {
	w := codec.NewWriter(256)
	w.U64(Magic)
	w.U32(FormatVersion)
	w.U32(s.pageSize)
	w.U64(s.nPages)
	w.U32(uint32(s.freeHead))
	for _, r := range s.roots {
		w.U32(uint32(r))
	}
	for _, c := range s.counters {
		w.U64(c)
	}
	w.U64(uint64(s.ckptLSN))
	body := p.Body()
	n := copy(body, w.Bytes())
	clear(body[n:]) // deterministic checksums
}

func (s *super) unmarshalFrom(p *Page) error {
	r := codec.NewReader(p.Body())
	if got := r.U64(); got != Magic {
		return fmt.Errorf("%w: %#x", ErrBadMagic, got)
	}
	if got := r.U32(); got != FormatVersion {
		return fmt.Errorf("%w: %d (want %d)", ErrBadVersion, got, FormatVersion)
	}
	s.pageSize = r.U32()
	s.nPages = r.U64()
	s.freeHead = oid.PageID(r.U32())
	for i := range s.roots {
		s.roots[i] = oid.PageID(r.U32())
	}
	for i := range s.counters {
		s.counters[i] = r.U64()
	}
	s.ckptLSN = oid.LSN(r.U64())
	return r.Err()
}
