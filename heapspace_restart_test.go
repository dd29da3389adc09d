package ode

import (
	"testing"

	"ode/internal/storage"
)

// TestHeapSpaceSurvivesRestarts runs cross-shard updates that join their
// shards in descending order, so the transaction layer rolls back and
// restarts them, and checks that the record heap keeps reusing its free
// space: a rollback must not make later inserts forget which heap pages
// have room.
func TestHeapSpaceSurvivesRestarts(t *testing.T) {
	db, err := Open(t.TempDir(), &Options{Shards: 4, NoSync: true, DerefCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	blobs, err := RegisterWithCodec[[]byte](db, "Blob", rawCodec{})
	if err != nil {
		t.Fatal(err)
	}
	m := db.Engine().Coordinator().Map()
	byShard := make([][]OID, 4)
	payload := make([]byte, 256)
	for batch := 0; batch < 16; batch++ { // each creating transaction picks the next shard
		if err := db.Update(func(tx *Tx) error {
			for i := 0; i < 32; i++ {
				p, err := blobs.Create(tx, &payload)
				if err != nil {
					return err
				}
				s := m.ShardOf(uint64(p.OID()))
				byShard[s] = append(byShard[s], p.OID())
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1500; i++ {
		hi, lo := byShard[3][i%len(byShard[3])], byShard[i%3][i%len(byShard[i%3])]
		if err := db.Update(func(tx *Tx) error {
			for _, o := range []OID{hi, lo} { // shard 3 first: a descending join
				if _, err := tx.NewVersion(o); err != nil {
					return err
				}
				if _, err := tx.UpdateLatestRaw(o, payload); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i, sm := range db.Engine().Coordinator().Shards() {
		if err := sm.Read(func(v *storage.TxView) error {
			c, err := v.Census()
			if err != nil {
				return err
			}
			// Pages the live records need at full occupancy, doubled.
			bound := 2 * (c.SlottedLiveBytes/uint64(v.PageSize()) + 1)
			if c.Slotted > bound {
				t.Errorf("shard %d: %d heap pages hold %d live bytes (bound %d pages)", i, c.Slotted, c.SlottedLiveBytes, bound)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}
