package ode

import (
	"bytes"
	"fmt"
	"testing"
)

// Engine-level tests of the dereference cache's validity rule: an entry
// stays valid until its own object changes (DESIGN.md §15.4).

// derefCacheDB opens a store with the given shard count and n objects,
// one created per transaction so the allocator spreads them over the
// shards. It returns each object's committed content.
func derefCacheDB(t *testing.T, shards, n int) (*DB, []OID, map[OID][]byte) {
	t.Helper()
	db, err := Open(t.TempDir(), &Options{Shards: shards, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	blobs, err := RegisterWithCodec[[]byte](db, "Blob", rawCodec{})
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]OID, n)
	want := make(map[OID][]byte, n)
	for i := range objs {
		content := []byte(fmt.Sprintf("object %d, first content", i))
		if err := db.Update(func(tx *Tx) error {
			p, err := blobs.Create(tx, &content)
			if err != nil {
				return err
			}
			objs[i] = p.OID()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		want[objs[i]] = content
	}
	return db, objs, want
}

// readLatest reads o's latest content in a fresh View.
func readLatest(t *testing.T, db *DB, o OID) []byte {
	t.Helper()
	var got []byte
	if err := db.View(func(tx *Tx) error {
		var err error
		got, _, err = tx.ReadLatestRaw(o)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestDerefCacheSurvivesUnrelatedCommits: a commit to one object leaves
// the other objects' cached latest versions servable.
func TestDerefCacheSurvivesUnrelatedCommits(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db, objs, want := derefCacheDB(t, shards, 64)
			readAll := func() {
				t.Helper()
				if err := db.View(func(tx *Tx) error {
					for _, o := range objs {
						got, _, err := tx.ReadLatestRaw(o)
						if err != nil {
							return err
						}
						if !bytes.Equal(got, want[o]) {
							return fmt.Errorf("%v: read %q, want %q", o, got, want[o])
						}
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			readAll() // fills the cache

			changed := objs[len(objs)/2]
			want[changed] = []byte("the changed object's new content")
			if err := db.Update(func(tx *Tx) error {
				_, err := tx.UpdateLatestRaw(changed, want[changed])
				return err
			}); err != nil {
				t.Fatal(err)
			}

			before := db.Stats()
			readAll()
			after := db.Stats()
			// Untouched objects sharing the changed object's mark stripe
			// may miss; 1024 stripes make that rare.
			if hits := after.DerefCacheHits - before.DerefCacheHits; hits < 56 {
				t.Fatalf("%d of the 63 untouched objects' reads hit the cache after one unrelated commit, want >= 56", hits)
			}
		})
	}
}

// TestDerefCacheLateFill: a View pinned before an Update of o reads and
// fills o's old content after the Update committed. That late fill must
// never be served to a View that begins after the Update.
func TestDerefCacheLateFill(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db, objs, want := derefCacheDB(t, shards, 4)
			o := objs[len(objs)-1]
			old := want[o]

			paused, resume := make(chan struct{}), make(chan struct{})
			var stale []byte
			done := make(chan error, 1)
			go func() {
				done <- db.View(func(tx *Tx) error {
					close(paused)
					<-resume
					var err error
					stale, _, err = tx.ReadLatestRaw(o)
					return err
				})
			}()
			<-paused

			updated := []byte("content written while a reader was paused")
			uerr := db.Update(func(tx *Tx) error {
				_, err := tx.UpdateLatestRaw(o, updated)
				return err
			})
			close(resume)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if uerr != nil {
				t.Fatal(uerr)
			}
			if !bytes.Equal(stale, old) {
				t.Fatalf("paused View read %q, want its snapshot's %q", stale, old)
			}
			for i := 0; i < 2; i++ {
				if got := readLatest(t, db, o); !bytes.Equal(got, updated) {
					t.Fatalf("View after the Update read %q, want %q", got, updated)
				}
			}
		})
	}
}

// TestDerefCacheConsistentUnderWrites races fresh Views against a
// stream of Updates of one object: within every View the cached latest
// read must equal the uncached read of the same version from the View's
// snapshot. A writer that marked the object only after publishing its
// commit would let a View pinned in between hit the entry filled before
// the write.
func TestDerefCacheConsistentUnderWrites(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db, objs, _ := derefCacheDB(t, shards, 2)
			o := objs[1]
			stop := make(chan struct{})
			done := make(chan error, 1)
			go func() {
				for views := 0; ; views++ {
					select {
					case <-stop:
						if views == 0 {
							done <- fmt.Errorf("reader ran no View")
							return
						}
						done <- nil
						return
					default:
					}
					if err := db.View(func(tx *Tx) error {
						cached, v, err := tx.ReadLatestRaw(o)
						if err != nil {
							return err
						}
						// Without the delta tier a specific read is
						// never cached.
						stored, err := tx.ReadVersionRaw(o, v)
						if err != nil {
							return err
						}
						if !bytes.Equal(cached, stored) {
							return fmt.Errorf("cached latest %q, snapshot holds %q", cached, stored)
						}
						return nil
					}); err != nil {
						done <- err
						return
					}
				}
			}()
			var uerr error
			for i := 0; i < 500 && uerr == nil; i++ {
				content := []byte(fmt.Sprintf("write %d", i))
				uerr = db.Update(func(tx *Tx) error {
					_, err := tx.UpdateLatestRaw(o, content)
					return err
				})
			}
			close(stop)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if uerr != nil {
				t.Fatal(uerr)
			}
		})
	}
}
