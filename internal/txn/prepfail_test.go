package txn

import (
	"errors"
	"os"
	"path"
	"sync"
	"testing"
	"time"

	"ode/internal/faultfs"
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
