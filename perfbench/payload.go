package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"

	"ode"
)

// A payload is [oid u64][seq u64][body][crc32 u32]: the object it
// belongs to, the writer's sequence number for it, seeded random bytes,
// and a checksum over everything before the checksum. Every read checks
// the checksum and the object id, so neither a torn or corrupted payload
// nor another object's content can pass as a correct read.
const (
	payloadHeader  = 16
	payloadTrailer = 4
)

// newPayload returns a size-byte payload for object o at sequence seq
// with a body drawn from rng.
func newPayload(rng *rand.Rand, size int, o ode.OID, seq uint64) []byte {
	p := make([]byte, size)
	rng.Read(p[payloadHeader : size-payloadTrailer])
	seal(p, o, seq)
	return p
}

// edited returns a copy of p at sequence seq with edit bytes of its body
// rewritten at a random offset: a small change, as a delta store sees.
func edited(rng *rand.Rand, p []byte, o ode.OID, seq uint64, edit int) []byte {
	q := append([]byte(nil), p...)
	body := q[payloadHeader : len(q)-payloadTrailer]
	edit = min(edit, len(body))
	off := rng.Intn(len(body) - edit + 1)
	rng.Read(body[off : off+edit])
	seal(q, o, seq)
	return q
}

func seal(p []byte, o ode.OID, seq uint64) {
	binary.LittleEndian.PutUint64(p[0:], uint64(o))
	binary.LittleEndian.PutUint64(p[8:], seq)
	n := len(p) - payloadTrailer
	binary.LittleEndian.PutUint32(p[n:], crc32.ChecksumIEEE(p[:n]))
}

// verify checks that p is an intact payload of object o and returns its
// sequence number.
func verify(p []byte, o ode.OID) (uint64, error) {
	if len(p) < payloadHeader+payloadTrailer {
		return 0, fmt.Errorf("object %v: payload of %d bytes is too short", o, len(p))
	}
	n := len(p) - payloadTrailer
	if got, want := crc32.ChecksumIEEE(p[:n]), binary.LittleEndian.Uint32(p[n:]); got != want {
		return 0, fmt.Errorf("object %v: payload checksum %08x, stored %08x", o, got, want)
	}
	if got := ode.OID(binary.LittleEndian.Uint64(p)); got != o {
		return 0, fmt.Errorf("read of object %v returned a payload of object %v", o, got)
	}
	return binary.LittleEndian.Uint64(p[8:]), nil
}
