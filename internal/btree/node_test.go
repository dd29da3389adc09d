package btree

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"ode/internal/faultfs"
	"ode/internal/oid"
	"ode/internal/storage"
)

// treeKey and treeVal name the entries the tests in this file load.
func treeKey(i int) []byte { return []byte(fmt.Sprintf("k%05d", i)) }
func treeVal(i int) []byte { return []byte(fmt.Sprintf("v%d", i)) }

// loadTree creates a tree of n entries on 512-byte pages (several
// levels for a few hundred keys) in an in-memory store.
func loadTree(t testing.TB, n int) (*storage.Store, *storage.TxView, *Tree) {
	t.Helper()
	st, err := storage.Create("bt.ode", storage.Options{PageSize: 512, FS: faultfs.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	v := st.OpenWriter(nil)
	tr, err := Create(v)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tr.Put(treeKey(i), treeVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	return st, v, tr
}

// leafOf returns the leaf a descent for key ends in.
func leafOf(t *testing.T, tr *Tree, key []byte) oid.PageID {
	t.Helper()
	id := tr.root
	for {
		n, err := tr.node(id)
		if err != nil {
			t.Fatal(err)
		}
		if n.leaf() {
			return id
		}
		c, err := n.childIndex(key)
		if err != nil {
			t.Fatal(err)
		}
		if id, err = n.child(c); err != nil {
			t.Fatal(err)
		}
	}
}

// mutate hands fn the writable body of page id.
func mutate(t *testing.T, v *storage.TxView, id oid.PageID, fn func(n nodeView)) {
	t.Helper()
	p, err := v.GetTyped(id, storage.PageBTree)
	if err != nil {
		t.Fatal(err)
	}
	p = v.Touch(p)
	fn(nodeView{id: id, b: p.Body()})
}

// TestCheckDetectsLayoutCorruption corrupts one node by hand per case
// and expects Check to name the violation.
func TestCheckDetectsLayoutCorruption(t *testing.T) {
	cases := []struct {
		name    string
		want    string
		corrupt func(t *testing.T, v *storage.TxView, tr *Tree)
	}{
		{"kind byte", "kind byte", func(t *testing.T, v *storage.TxView, tr *Tree) {
			mutate(t, v, leafOf(t, tr, treeKey(100)), func(n nodeView) { n.b[offKind] = 7 })
		}},
		{"cell start inside slot directory", "cell start", func(t *testing.T, v *storage.TxView, tr *Tree) {
			mutate(t, v, leafOf(t, tr, treeKey(100)), func(n nodeView) {
				n.setCellStart(nodeHdr + slotSize*n.count() - 1)
			})
		}},
		{"cell outside page", "outside the cell area", func(t *testing.T, v *storage.TxView, tr *Tree) {
			mutate(t, v, leafOf(t, tr, treeKey(100)), func(n nodeView) { n.setSlot(1, len(n.b)) })
		}},
		{"cell length past page end", "bad length", func(t *testing.T, v *storage.TxView, tr *Tree) {
			mutate(t, v, leafOf(t, tr, treeKey(100)), func(n nodeView) {
				n.b[n.slot(0)] = 0x7f // klen 127 from a cell near the page end
				n.setSlot(0, len(n.b)-3)
			})
		}},
		{"overlapping cells", "overlap", func(t *testing.T, v *storage.TxView, tr *Tree) {
			mutate(t, v, leafOf(t, tr, treeKey(100)), func(n nodeView) { n.setSlot(1, n.slot(0)) })
		}},
		{"keys out of order", "order violation", func(t *testing.T, v *storage.TxView, tr *Tree) {
			mutate(t, v, leafOf(t, tr, treeKey(100)), func(n nodeView) {
				a, b := n.slot(0), n.slot(1)
				n.setSlot(0, b)
				n.setSlot(1, a)
			})
		}},
		{"separator above its child's keys", "below its separator", func(t *testing.T, v *storage.TxView, tr *Tree) {
			// Raise the root's first separator by one in its last byte:
			// it stays below the next separator but now exceeds the
			// first key of the child it bounds.
			mutate(t, v, tr.root, func(n nodeView) {
				k, err := n.key(0)
				if err != nil {
					t.Fatal(err)
				}
				k[len(k)-1]++
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, v, tr := loadTree(t, 400)
			if err := tr.Check(); err != nil {
				t.Fatalf("intact tree: %v", err)
			}
			tc.corrupt(t, v, tr)
			err := tr.Check()
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Check = %v, want ErrCorrupt mentioning %q", err, tc.want)
			}
		})
	}
}

// TestSnapshotInPlaceReads pauses a read-only handle partway through an
// Ascend over a leaf, holding its memoised pages and the leaf its last
// Get ended in, while a writer splits and compacts that leaf. The
// reader must still see exactly its snapshot, through the Ascend and
// through a Get served by the remembered leaf.
func TestSnapshotInPlaceReads(t *testing.T) {
	const n = 400
	st, w, wt := loadTree(t, n)
	w.SetRoot(0, wt.Root())
	pool := st.Pool()
	pool.AdvanceDurableTo(pool.AdvanceEpoch())

	r, err := st.OpenReader()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rt := Open(r, r.Root(0))

	// Remember the leaf holding the middle keys.
	const mid = 200
	if v, ok, err := rt.Get(treeKey(mid)); err != nil || !ok || !bytes.Equal(v, treeVal(mid)) {
		t.Fatalf("Get before: %q %v %v", v, ok, err)
	}
	remembered := rt.last
	if remembered == nil {
		t.Fatal("read-only Get remembered no leaf")
	}
	leaf := remembered.ID
	first, _ := nodeView{id: leaf, b: remembered.Body()}.key(0)
	from := append([]byte(nil), first...)

	// The writer, in its own goroutine: delete and re-insert entries of
	// the remembered leaf with longer values (garbage, then compaction),
	// then insert keys between its entries until it splits. A second
	// round runs unsynchronised with the reader's resumed scan.
	paused, resume, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-paused
		pagesBefore := w.NumPages()
		werr := func() error {
			for round := 0; round < 2; round++ {
				for i := mid - 10; i < mid+10; i++ {
					if _, err := wt.Delete(treeKey(i)); err != nil {
						return err
					}
				}
				for i := mid - 10; i < mid+10; i++ {
					if err := wt.Put(treeKey(i), bytes.Repeat([]byte{'w'}, 20+round)); err != nil {
						return err
					}
				}
				for i := mid - 20; i < mid+20; i++ {
					if err := wt.Put(append(treeKey(i), byte('a'+round)), []byte("new")); err != nil {
						return err
					}
				}
				w.SetRoot(0, wt.Root())
				pool.AdvanceDurableTo(pool.AdvanceEpoch())
				if round == 0 {
					if _, ok, err := wt.Get(treeKey(mid)); err != nil || !ok {
						return fmt.Errorf("writer lost %q: %v", treeKey(mid), err)
					}
					if err := wt.Check(); err != nil {
						return err
					}
					if w.NumPages() == pagesBefore {
						return fmt.Errorf("no node split")
					}
					close(resume)
				}
			}
			return wt.Check()
		}()
		if werr != nil {
			select {
			case <-resume:
			default:
				close(resume)
			}
		}
		done <- werr
	}()

	var got [][]byte
	err = rt.Ascend(from, nil, func(k, v []byte) (bool, error) {
		if len(got) == 0 {
			close(paused)
			<-resume
		}
		got = append(got, append([]byte(nil), k...))
		var i int
		if _, err := fmt.Sscanf(string(k), "k%05d", &i); err != nil || !bytes.Equal(v, treeVal(i)) {
			return false, fmt.Errorf("snapshot entry %q = %q", k, v)
		}
		return true, nil
	})
	wg.Wait()
	if werr := <-done; werr != nil {
		t.Fatalf("writer: %v", werr)
	}
	if err != nil {
		t.Fatal(err)
	}
	var firstIdx int
	if _, err := fmt.Sscanf(string(from), "k%05d", &firstIdx); err != nil {
		t.Fatal(err)
	}
	if len(got) != n-firstIdx {
		t.Fatalf("scan from %q saw %d keys, snapshot has %d", from, len(got), n-firstIdx)
	}
	for j, k := range got {
		if !bytes.Equal(k, treeKey(firstIdx+j)) {
			t.Fatalf("scan key %d = %q, want %q", j, k, treeKey(firstIdx+j))
		}
	}

	// Get through the remembered leaf: with the root link cut only the
	// remembered leaf can answer, and it must answer from the snapshot.
	if rt.last != remembered {
		t.Fatal("the remembered leaf changed without a Get")
	}
	ln := nodeView{id: leaf, b: remembered.Body()}
	last, _ := ln.key(ln.count() - 1)
	var lo, hi int
	fmt.Sscanf(string(from), "k%05d", &lo)
	fmt.Sscanf(string(last), "k%05d", &hi)
	root := rt.root
	rt.root = oid.NilPage
	for i := lo; i <= hi; i++ {
		v, ok, err := rt.Get(treeKey(i))
		if err != nil || !ok || !bytes.Equal(v, treeVal(i)) {
			t.Fatalf("remembered-leaf Get %q: %q %v %v", treeKey(i), v, ok, err)
		}
		if i < hi {
			if _, ok, err := rt.Get(append(treeKey(i), 'a')); err != nil || ok {
				t.Fatalf("remembered-leaf Get sees the writer's key: %v %v", ok, err)
			}
		}
	}
	rt.root = root
	for i := 0; i < n; i++ {
		if v, ok, err := rt.Get(treeKey(i)); err != nil || !ok || !bytes.Equal(v, treeVal(i)) {
			t.Fatalf("snapshot Get %q: %q %v %v", treeKey(i), v, ok, err)
		}
	}
	if err := rt.Check(); err != nil {
		t.Fatalf("snapshot Check: %v", err)
	}
}

// FuzzNode runs every operation over an arbitrary node body. Malformed
// slot offsets, varints and cell lengths must come back as ErrCorrupt;
// nothing may panic or read outside the page.
func FuzzNode(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(0), []byte{kindLeaf, 0, 0, 0, 0, 0, 1, 0x01, 0xf0, 0x01, 0xf0})
	f.Add(uint8(1), []byte{kindInternal, 0, 0, 0, 1, 0, 1, 0x01, 0xe0, 0x01, 0xe0})
	f.Add(uint8(2), []byte{kindLeaf, 0, 0, 0, 2, 0, 2, 0x01, 0xe0, 0x01, 0xe0, 0x01, 0xe0})
	f.Add(uint8(0), []byte{kindLeaf, 0, 0, 0, 0, 0, 1, 0x01, 0xef, 0x01, 0xef, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		_, v, tr := loadTree(t, 60)
		// Overwrite one node: the root or one of the leaves.
		ids := []oid.PageID{tr.root}
		if err := tr.Ascend(nil, nil, func(k, _ []byte) (bool, error) {
			if id := leafOf(t, tr, k); id != ids[len(ids)-1] {
				ids = append(ids, id)
			}
			return true, nil
		}); err != nil {
			t.Fatal(err)
		}
		mutate(t, v, ids[int(which)%len(ids)], func(n nodeView) {
			clear(n.b)
			copy(n.b, body)
		})

		ok := func(op string, err error) {
			if err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, storage.ErrPageType) {
				t.Fatalf("%s: %v is not a corrupt-node error", op, err)
			}
		}
		for i := 0; i < 60; i += 13 {
			_, _, err := tr.Get(treeKey(i))
			ok("Get", err)
			_, _, _, err = tr.SeekLE(treeKey(i))
			ok("SeekLE", err)
		}
		_, _, _, err := tr.Max()
		ok("Max", err)
		ok("Ascend", tr.Ascend(nil, nil, func(_, _ []byte) (bool, error) { return true, nil }))
		ok("Ascend from", tr.Ascend(treeKey(30), treeKey(50), func(_, _ []byte) (bool, error) { return true, nil }))
		ok("Check", tr.Check())
		for i := 0; i < 60; i += 7 {
			ok("Put", tr.Put(treeKey(i), bytes.Repeat([]byte{'x'}, i)))
			ok("Put new", tr.Put(append(treeKey(i), '+'), []byte("y")))
			_, err := tr.Delete(treeKey(i + 3))
			ok("Delete", err)
		}
		ok("Check after writes", tr.Check())
	})
}
