package txn

import (
	"errors"
	"os"
	"path"
	"sync"
	"testing"
	"time"

	"ode/internal/faultfs"
	"ode/internal/oid"
	"ode/internal/storage"
)

// gateFS wraps a filesystem so that, once armed, the next Sync of the
// named file signals entered, blocks until release is closed and then
// fails with errGateSync.
type gateFS struct {
	faultfs.FS
	name string

	mu      sync.Mutex
	armed   bool
	entered chan struct{}
	release chan struct{}
}

var errGateSync = errors.New("gated sync failure")

func (g *gateFS) arm() {
	g.mu.Lock()
	g.armed = true
	g.entered = make(chan struct{})
	g.release = make(chan struct{})
	g.mu.Unlock()
}

func (g *gateFS) OpenFile(p string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := g.FS.OpenFile(p, flag, perm)
	if err != nil || path.Base(p) != g.name {
		return f, err
	}
	return &gateFile{File: f, g: g}, nil
}

type gateFile struct {
	faultfs.File
	g *gateFS
}

func (f *gateFile) Sync() error {
	g := f.g
	g.mu.Lock()
	armed := g.armed
	g.armed = false
	g.mu.Unlock()
	if !armed {
		return f.File.Sync()
	}
	close(g.entered)
	<-g.release
	return errGateSync
}

// TestPrepareBehindFailingBatch queues a 2PC prepare behind a
// single-shard commit whose group fsync then fails. The prepare's owner
// holds the shard's writer mutex while it waits for its ack, and the
// failed batch's rollback needs that mutex: the committer must fail the
// queued prepare first so both writers return, and the store must stay
// writable afterwards.
func TestPrepareBehindFailingBatch(t *testing.T) {
	g := &gateFS{FS: faultfs.NewMem(), name: ShardWALFileName(0)}
	c, err := OpenCoordinator("/db", Options{
		Shards:          2,
		Storage:         storage.Options{PageSize: 512, FS: g},
		CheckpointBytes: -1,
		FS:              g,
	})
	if err != nil {
		t.Fatal(err)
	}
	insert := func(shards ...int) error {
		return c.Write(func(w *WriteTx) error {
			for _, s := range shards {
				v, err := w.Join(s)
				if err != nil {
					return err
				}
				if _, err := storage.NewHeap(v, nil).Insert([]byte("payload")); err != nil {
					return err
				}
			}
			return nil
		})
	}

	g.arm()
	local := make(chan error, 1)
	go func() { local <- insert(0) }()
	<-g.entered // the single-shard batch is in its fsync

	cross := make(chan error, 1)
	go func() { cross <- insert(0, 1) }()
	gc := c.ms()[0].gc
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		gc.qmu.Lock()
		queued := len(gc.q) == 1 && gc.q[0].prepare
		gc.qmu.Unlock()
		if queued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("2PC prepare never queued behind the in-flight batch")
		}
	}
	close(g.release) // the batch's fsync fails

	timeout := time.After(5 * time.Second)
	for name, ch := range map[string]chan error{"single-shard": local, "cross-shard": cross} {
		select {
		case err := <-ch:
			if !errors.Is(err, errGateSync) {
				t.Fatalf("%s commit: err = %v, want the failed fsync", name, err)
			}
		case <-timeout:
			t.Fatalf("%s commit not acked within 5s of the failed fsync", name)
		}
	}

	// Nothing was poisoned: both shards take local and 2PC commits.
	for _, shards := range [][]int{{0}, {1}, {0, 1}} {
		if err := insert(shards...); err != nil {
			t.Fatalf("commit on %v after the failed batch: %v", shards, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPrepareLeadsFailingBatch has a 2PC prepare owner lead a batch
// that also carries an earlier local commit, and fails that batch's
// fsync. The owner already holds the shard's writer mutex, so it must
// roll the whole batch back itself — its own prepare first — without
// re-taking the mutex, and leave nothing for the coordinator's own
// rollback to undo. Both writers rewrite the same shard-0 record, so
// a second rollback of the prepare would bring the local write back.
func TestPrepareLeadsFailingBatch(t *testing.T) {
	g := &gateFS{FS: faultfs.NewMem(), name: ShardWALFileName(0)}
	opts := Options{
		Shards:          2,
		Storage:         storage.Options{PageSize: 512, FS: g},
		CheckpointBytes: -1,
		FS:              g,
	}
	c, err := OpenCoordinator("/db", opts)
	if err != nil {
		t.Fatal(err)
	}
	// write rewrites the shard-0 record base while rewrite is set, and
	// otherwise inserts payload on every shard it joins.
	var base oid.RID
	rewrite := false
	write := func(payload string, shards ...int) error {
		return c.Write(func(w *WriteTx) error {
			for _, s := range shards {
				v, err := w.Join(s)
				if err != nil {
					return err
				}
				h := storage.NewHeap(v, nil)
				if s == 0 && rewrite {
					err = h.Update(base, []byte(payload))
				} else {
					_, err = h.Insert([]byte(payload))
				}
				if err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err := c.Write(func(w *WriteTx) error {
		v, err := w.Join(0)
		if err != nil {
			return err
		}
		base, err = storage.NewHeap(v, nil).Insert([]byte("base0"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	rewrite = true
	m := c.ms()[0]

	// The local writer prepares — its request is queued — and only then
	// reaches its flush, once the test lets it. Until then the 2PC
	// prepare owner finds the request queued ahead of its own and leads
	// the batch carrying both.
	queued := make(chan struct{})
	proceed := make(chan struct{})
	local := make(chan error, 1)
	go func() {
		req, err := m.prepare(func(v *storage.TxView) error {
			return storage.NewHeap(v, nil).Update(base, []byte("local"))
		})
		close(queued)
		if err != nil {
			local <- err
			return
		}
		<-proceed
		err = m.gc.commit(req, false)
		recycleFrames(req)
		local <- err
	}()
	<-queued

	g.arm()
	close(g.release) // the next wal.000 fsync fails at once
	cross := make(chan error, 1)
	go func() { cross <- write("cross", 0, 1) }()

	// The prepare owner must come back on its own: the local writer has
	// not reached its flush, so nobody else can lead or roll back.
	select {
	case err := <-cross:
		if !errors.Is(err, errGateSync) {
			t.Fatalf("cross-shard commit: err = %v, want the failed fsync", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cross-shard commit not acked within 5s of the failed fsync")
	}
	close(proceed)
	select {
	case err := <-local:
		if !errors.Is(err, errGateSync) {
			t.Fatalf("local commit: err = %v, want the failed fsync", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("local commit not acked within 5s of the failed fsync")
	}
	// One shard-level abort: the local commit. The prepare's abort is
	// the coordinator's to count.
	if got := m.Stats().Aborts; got != 1 {
		t.Errorf("shard 0 aborts = %d, want 1", got)
	}

	// Neither writer left anything behind, in memory or on disk.
	assertGone := func(c *Coordinator) {
		t.Helper()
		for s, m := range c.ms() {
			if err := m.Read(func(v *storage.TxView) error {
				return storage.NewHeap(v, nil).Scan(func(_ oid.RID, data []byte) (bool, error) {
					if p := string(data); p == "local" || p == "cross" {
						t.Errorf("shard %d holds the failed %s write", s, p)
					}
					return true, nil
				})
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.ms()[0].Read(func(v *storage.TxView) error {
			data, err := storage.NewHeap(v, nil).Read(base)
			if err == nil && string(data) != "base0" {
				t.Errorf("shard-0 record = %q, want %q", data, "base0")
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	assertGone(c)

	// Nothing was poisoned: both shards take local and 2PC commits.
	rewrite = false
	for _, shards := range [][]int{{0}, {1}, {0, 1}} {
		if err := write("after", shards...); err != nil {
			t.Fatalf("commit on %v after the failed batch: %v", shards, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c, err = OpenCoordinator("/db", opts)
	if err != nil {
		t.Fatal(err)
	}
	assertGone(c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}
