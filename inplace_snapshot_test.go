package ode

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"testing"
)

// TestViewSnapshotDuringNodeSplits pauses a View partway through an
// Extent scan, after it has read an object (so its tree handles hold
// memoised pages and a remembered leaf), while concurrent Updates add
// versions to, delete and update the objects around it: version-index
// leaves split, and object-table and extent leaves lose cells and
// compact. B-tree reads search the snapshot's page bytes in place, so
// the View must still see exactly its snapshot. Run under -race by
// `make race`, at 1 and 4 shards.
func TestViewSnapshotDuringNodeSplits(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testViewSnapshotDuringNodeSplits(t, shards)
		})
	}
}

func testViewSnapshotDuringNodeSplits(t *testing.T, shards int) {
	// The deref cache off: every read goes through the B-trees.
	db, err := Open(t.TempDir(), &Options{Shards: shards, DerefCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	blobs, err := RegisterWithCodec[[]byte](db, "Blob", rawCodec{})
	if err != nil {
		t.Fatal(err)
	}
	const nObjects = 1500
	content := func(o OID, gen int) []byte { return []byte(fmt.Sprintf("%v/%d", o, gen)) }
	var oids []OID
	for len(oids) < nObjects {
		if err := db.Update(func(tx *Tx) error {
			for i := 0; i < 250; i++ {
				o, _, err := tx.CreateRaw(blobs.ID(), nil)
				if err != nil {
					return err
				}
				if _, err := tx.UpdateLatestRaw(o, content(o, 0)); err != nil {
					return err
				}
				oids = append(oids, o)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })

	// The writer: each round gives a middle block of objects new
	// versions with longer contents and deletes every fifth object of
	// it. Round 0 runs while the View is paused, round 1 alongside its
	// resumed scan.
	paused, resume := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	var werr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			select {
			case <-resume:
			default:
				close(resume)
			}
		}()
		<-paused
		for round := 0; round < 2; round++ {
			lo := nObjects/4 + round*nObjects/4
			for start := lo; start < lo+nObjects/4; start += 75 {
				werr = db.Update(func(tx *Tx) error {
					for i := start; i < start+75; i++ {
						o := oids[i]
						if i%5 == 0 {
							if err := tx.DeleteObject(o); err != nil {
								return err
							}
							continue
						}
						for g := 1; g <= 3; g++ {
							if _, err := tx.NewVersion(o); err != nil {
								return err
							}
							if _, err := tx.UpdateLatestRaw(o, bytes.Repeat(content(o, g), g+1)); err != nil {
								return err
							}
						}
					}
					return nil
				})
				if werr != nil {
					return
				}
			}
			if round == 0 {
				close(resume)
			}
		}
	}()

	err = db.View(func(tx *Tx) error {
		mid := oids[nObjects/2]
		if c, _, err := tx.ReadLatestRaw(mid); err != nil || !bytes.Equal(c, content(mid, 0)) {
			return fmt.Errorf("read before the pause: %q %v", c, err)
		}
		var seen []OID
		if err := tx.Extent(blobs.ID(), func(o OID) (bool, error) {
			if len(seen) == nObjects/3 {
				close(paused)
				<-resume
			}
			seen = append(seen, o)
			return true, nil
		}); err != nil {
			return err
		}
		if len(seen) != nObjects {
			return fmt.Errorf("extent saw %d objects, snapshot has %d", len(seen), nObjects)
		}
		for i, o := range seen {
			if o != oids[i] {
				return fmt.Errorf("extent item %d is %v, want %v", i, o, oids[i])
			}
		}
		// Neighbours of the object read before the pause come through
		// the remembered leaves; every read must return the snapshot.
		for k := 0; k < nObjects; k++ {
			o := oids[(nObjects/2+k)%nObjects]
			c, _, err := tx.ReadLatestRaw(o)
			if err != nil || !bytes.Equal(c, content(o, 0)) {
				return fmt.Errorf("snapshot read of %v: %q %v", o, c, err)
			}
			if n, err := tx.VersionCount(o); err != nil || n != 1 {
				return fmt.Errorf("snapshot version count of %v: %d %v", o, n, err)
			}
		}
		return nil
	})
	select { // a View that failed before its pause still releases the writer
	case <-paused:
	default:
		close(paused)
	}
	wg.Wait()
	if werr != nil {
		t.Fatalf("writer: %v", werr)
	}
	if err != nil {
		t.Fatal(err)
	}

	// The writes are all there afterwards, and the trees check out.
	if err := db.View(func(tx *Tx) error {
		for i := nObjects / 4; i < 3*nObjects/4; i++ {
			o := oids[i]
			n, err := tx.VersionCount(o)
			if i%5 == 0 {
				if err == nil {
					return fmt.Errorf("deleted object %v still has %d versions", o, n)
				}
				continue
			}
			if err != nil || n != 4 {
				return fmt.Errorf("object %v: %d versions, %v", o, n, err)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}
