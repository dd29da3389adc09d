// Package txn implements Ode's transaction manager: single-writer /
// multi-reader snapshot isolation, redo-only write-ahead logging of page
// after-images, in-memory before-images for abort, crash recovery, and
// log-truncating checkpoints.
//
// The durability contract: when Write returns nil, the transaction's
// effects survive a crash (its page images and commit record are fsynced
// in the WAL before Write returns; NoSync gives that guarantee up). A
// transaction that returns an error, or panics, is rolled back
// completely.
//
// Concurrency: writers serialise on a narrow mutex; readers never take
// it. Read pins a buffer-pool epoch (advanced by each commit after WAL
// fsync) and runs against copy-on-write page snapshots, so a View
// neither blocks nor is blocked by a concurrent Update — including its
// commit fsync. The paper does not discuss concurrency control; this
// model is the substrate a real library needs and is documented as
// beyond-paper (DESIGN.md §2, §9).
package txn

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ode/internal/faultfs"
	"ode/internal/obs"
	"ode/internal/oid"
	"ode/internal/storage"
	"ode/internal/wal"
)

// DataFileName and WALFileName are the files a database directory holds.
const (
	DataFileName = "data.ode"
	WALFileName  = "wal.ode"
)

// DefaultCheckpointBytes triggers a checkpoint when the WAL exceeds this
// size at a commit boundary.
const DefaultCheckpointBytes = 8 << 20

// ErrClosed reports use of a closed manager.
var ErrClosed = errors.New("txn: manager closed")

// ErrReadOnly reports a write on a read-only manager.
var ErrReadOnly = errors.New("txn: database opened read-only")

// ErrNeedsRecovery reports a read-only open of a database whose WAL
// holds committed work that the data file does not yet reflect.
var ErrNeedsRecovery = errors.New("txn: read-only open requires crash recovery; open writable once first")

// ErrPoisoned reports a manager disabled by an earlier unrecoverable
// I/O failure. Durable state is intact (the WAL was preserved); reopen
// the database to resume writing.
var ErrPoisoned = errors.New("txn: manager disabled by earlier I/O error; reopen to recover")

// Options configures the manager.
type Options struct {
	// Storage is forwarded to the storage layer.
	Storage storage.Options
	// NoSync commits through the same group-commit path without the
	// fsync (checkpoints and 2PC decision records skip theirs too).
	// Throughput rises at the price of durability of the most recent
	// commits; used by benchmarks to isolate CPU costs.
	NoSync bool
	// CheckpointBytes overrides DefaultCheckpointBytes; <0 disables
	// automatic checkpoints.
	CheckpointBytes int64
	// FS is the filesystem the data file and WAL live on. Nil means the
	// real OS. The crash-consistency matrix installs a fault-injecting
	// implementation (internal/faultfs) here.
	FS faultfs.FS
	// NoMetrics disables the observability registry entirely: no
	// counters, no histograms, no timestamps on the commit path. It
	// exists for the overhead benchmark (E13), which compares the
	// instrumented default against this uninstrumented baseline.
	NoMetrics bool
	// Tracer, when set, receives structured span events for every
	// write transaction (begin/prepare/fsync/publish/abort) and
	// checkpoint. Delivery is decoupled through a bounded queue; see
	// obs.Sink.
	Tracer obs.Tracer
	// TracerBuffer bounds the tracer event queue; 0 means
	// obs.DefaultTracerBuffer. Events past the bound are dropped (and
	// counted) rather than ever blocking a commit.
	TracerBuffer int
	// Shards is consumed by OpenCoordinator: the number of independent
	// storage shards (heap + pool + WAL + commit pipeline each) a new
	// database is created with. 0 means GOMAXPROCS for a fresh directory
	// and "adopt whatever the directory already has" for an existing
	// one; 1 is the pre-shard engine bit-for-bit (legacy file names, no
	// shard metadata). Individual Managers ignore it.
	Shards int

	// Coordinator-internal plumbing (same package only). dataFile and
	// walFile override the legacy file names for shard slots; decided is
	// the coordinator-log decision set recovery consults for in-doubt
	// prepared transactions; sink is the shared tracer sink a
	// coordinated shard must use (and must not close).
	dataFile    string
	walFile     string
	decided     map[uint64]bool
	sink        *obs.Sink
	coordinated bool
	shardID     int
}

// dataFileName and walFileName resolve the shard's file names, falling
// back to the legacy single-shard names.
func (o *Options) dataFileName() string {
	if o.dataFile != "" {
		return o.dataFile
	}
	return DataFileName
}

func (o *Options) walFileName() string {
	if o.walFile != "" {
		return o.walFile
	}
	return WALFileName
}

// fsys resolves the filesystem the manager should use: Options.FS, then
// the storage-level hook, then the real OS.
func (o *Options) fsys() faultfs.FS {
	if o.FS != nil {
		return o.FS
	}
	if o.Storage.FS != nil {
		return o.Storage.FS
	}
	return faultfs.OS
}

// Stats reports manager activity since open.
type Stats struct {
	Commits       uint64
	Aborts        uint64
	Checkpoints   uint64
	RecoveredTxns uint64
	WALBytes      int64
	// Batches counts group-commit flushes (one fsync each unless NoSync);
	// Commits/Batches is the mean group size.
	Batches uint64
}

// Manager owns one database directory: its store, its WAL, and the
// writer lock. Readers do not take the writer lock: they are admitted
// under rmu (a brief critical section) and then run lock-free against
// an epoch-pinned snapshot view.
type Manager struct {
	// mu is the writer lock: Write (prepare), Checkpoint, Exclusive,
	// failSuffix, and the tail of Close serialise on it. st (superblock
	// mutation), nextTx and ioErr are writer-side state guarded by it.
	mu     sync.Mutex
	st     *storage.Store
	opts   Options
	nextTx uint64 // in-memory: txids only disambiguate within one log lifetime

	// logMu guards the WAL: a batch leader appends and fsyncs without
	// necessarily holding mu, while checkpoints (under mu, pipeline
	// drained) append markers and reset. Lock order is mu before logMu;
	// a logMu holder never takes mu.
	logMu sync.Mutex
	log   *wal.Log

	// gc is the commit queue every write goes through. The checkpointer
	// goroutine coalesces WAL-size-triggered checkpoints off the commit
	// path.
	gc       *groupCommitter
	ckptKick chan struct{}
	ckptStop chan struct{}
	ckptWG   sync.WaitGroup

	// rmu guards reader admission and closed; Close flips closed and
	// then drains in-flight readers via the WaitGroup.
	rmu     sync.Mutex
	readers sync.WaitGroup
	closed  bool

	// Activity counters. Atomic so Stats never touches either lock —
	// it must stay cheap and non-blocking even mid-commit. commits and
	// batches additionally move together under a seqlock (statsMu +
	// statsSeq) so Stats returns a mutually consistent pair: a batch's
	// publication is never visible half-applied (Batches advanced but
	// not its Commits, or vice versa).
	commits     atomic.Uint64
	aborts      atomic.Uint64
	batches     atomic.Uint64
	checkpoints atomic.Uint64
	recovered   uint64       // set once at open, read-only after
	walBytes    atomic.Int64 // mirror of log.Size(), updated under mu

	// statsMu serialises commits/batches updaters (a batch leader and a
	// read-only Write can otherwise race); statsSeq is the seqlock
	// generation — odd while an update is in flight.
	statsMu  sync.Mutex
	statsSeq atomic.Uint64

	// m is the observability registry shared with the pool, the WAL
	// and the engine; nil when Options.NoMetrics (the benchmark
	// baseline). sink delivers tracer spans; nil without a tracer. A
	// coordinated shard shares the coordinator's sink and must not
	// close it (ownSink).
	m       *obs.Metrics
	sink    *obs.Sink
	ownSink bool

	// ioErr, once set, permanently disables writes: an I/O failure left
	// the in-memory state and the on-disk state possibly divergent in a
	// way only recovery (a reopen) can reconcile. The WAL is preserved
	// so no acked commit is lost.
	ioErr error
}

// tracker captures before-images for abort and the dirty set for commit
// logging. It implements storage.MutationTracker; one is born per write
// transaction and dies with it (there is no global tracker seam).
type tracker struct {
	before    map[oid.PageID]beforeImage
	allocated map[oid.PageID]bool
}

type beforeImage struct {
	data     []byte
	wasDirty bool
}

func newTracker() *tracker {
	return &tracker{
		before:    make(map[oid.PageID]beforeImage),
		allocated: make(map[oid.PageID]bool),
	}
}

// BeforeMutate implements storage.MutationTracker. before aliases the
// pool's immutable snapshot page, so no copy is made here; rollback
// copies it back into the (distinct) live page.
func (tr *tracker) BeforeMutate(id oid.PageID, before []byte, wasDirty bool) {
	if tr.allocated[id] {
		return // born this txn; no before-image exists
	}
	if _, ok := tr.before[id]; ok {
		return
	}
	tr.before[id] = beforeImage{data: before, wasDirty: wasDirty}
}

// reset forgets every captured page, leaving nothing to roll back.
func (tr *tracker) reset() {
	clear(tr.before)
	clear(tr.allocated)
}

// dirty reports whether the transaction touched any page.
func (tr *tracker) dirty() bool { return len(tr.before)+len(tr.allocated) > 0 }

// DidAllocate implements storage.MutationTracker.
func (tr *tracker) DidAllocate(id oid.PageID) { tr.allocated[id] = true }

// touchedPages returns the transaction's dirty set: every page with a
// before-image plus every allocation.
func (tr *tracker) touchedPages() []oid.PageID {
	touched := make([]oid.PageID, 0, len(tr.before)+len(tr.allocated))
	for id := range tr.before {
		touched = append(touched, id)
	}
	for id := range tr.allocated {
		if _, dup := tr.before[id]; !dup {
			touched = append(touched, id)
		}
	}
	return touched
}

// Tracked implements storage.MutationTracker: the view skips the
// copy-on-write for pages this transaction already captured.
func (tr *tracker) Tracked(id oid.PageID) bool {
	if tr.allocated[id] {
		return true
	}
	_, ok := tr.before[id]
	return ok
}

// Create initialises a new database directory.
func Create(dir string, opts Options) (*Manager, error) {
	fsys := opts.fsys()
	opts.Storage.FS = fsys
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("txn: mkdir %s: %w", dir, err)
	}
	st, err := storage.Create(filepath.Join(dir, opts.dataFileName()), opts.Storage)
	if err != nil {
		return nil, err
	}
	log, err := wal.OpenFS(fsys, filepath.Join(dir, opts.walFileName()))
	if err != nil {
		st.Close()
		return nil, err
	}
	m := &Manager{st: st, log: log, opts: opts}
	m.walBytes.Store(log.Size())
	m.initObs()
	m.startPipeline()
	return m, nil
}

// initObs builds the metrics registry (unless NoMetrics) and the
// tracer sink (when a tracer is configured), wiring the registry into
// the pool and the WAL before either is shared across goroutines.
func (m *Manager) initObs() {
	if !m.opts.NoMetrics {
		m.m = obs.New()
		m.st.Pool().SetMetrics(m.m)
		m.log.SetMetrics(m.m)
	}
	if m.opts.coordinated {
		// Coordinated shard: spans flow through the coordinator's shared
		// sink (which also owns the dropped counter); never close it here.
		m.sink = m.opts.sink
		return
	}
	var dropped *obs.Counter
	if m.m != nil {
		dropped = &m.m.TracerDropped
	}
	m.sink = obs.NewSink(m.opts.Tracer, m.opts.TracerBuffer, dropped)
	m.ownSink = true
}

// Metrics returns the observability registry; nil under NoMetrics.
func (m *Manager) Metrics() *obs.Metrics { return m.m }

// timed reports whether the commit path needs timestamps (either the
// registry or a tracer consumes them). False — the NoMetrics, no-
// tracer baseline — keeps even the time.Now calls off the hot path.
func (m *Manager) timed() bool { return m.m != nil || m.sink != nil }

// addCommitsBatches publishes a commits/batches delta under the stats
// seqlock. Readers (Stats) retry while statsSeq is odd or changed, so
// they never observe the pair half-applied.
func (m *Manager) addCommitsBatches(commits, batches uint64) {
	m.statsMu.Lock()
	m.statsSeq.Add(1) // odd: update in flight
	m.batches.Add(batches)
	m.commits.Add(commits)
	m.statsSeq.Add(1) // even: stable
	m.statsMu.Unlock()
}

// startPipeline builds the commit queue and launches the background
// checkpointer.
func (m *Manager) startPipeline() {
	m.gc = newGroupCommitter(m)
	m.ckptKick = make(chan struct{}, 1)
	m.ckptStop = make(chan struct{})
	m.ckptWG.Add(1)
	go m.checkpointer()
}

// Open opens an existing database directory, running crash recovery
// first if the WAL holds committed work. A read-only open refuses to
// run recovery (it would have to write); open writable once to recover.
func Open(dir string, opts Options) (*Manager, error) {
	fsys := opts.fsys()
	opts.Storage.FS = fsys
	dataPath := filepath.Join(dir, opts.dataFileName())
	walPath := filepath.Join(dir, opts.walFileName())
	log, err := wal.OpenFS(fsys, walPath)
	if err != nil {
		return nil, err
	}
	var recovered uint64
	if opts.Storage.ReadOnly {
		pending, err := committedInLog(log, opts.decided)
		if err != nil {
			log.Close()
			return nil, err
		}
		if pending > 0 {
			log.Close()
			return nil, ErrNeedsRecovery
		}
	} else {
		recovered, err = recover2(fsys, log, dataPath, opts.decided)
		if err != nil {
			log.Close()
			return nil, fmt.Errorf("txn: recovery: %w", err)
		}
	}
	st, err := storage.Open(dataPath, opts.Storage)
	if err != nil {
		log.Close()
		return nil, err
	}
	m := &Manager{st: st, log: log, opts: opts}
	m.recovered = recovered
	m.walBytes.Store(log.Size())
	m.initObs()
	m.startPipeline()
	return m, nil
}

// committedInLog counts committed transactions present in the log: ones
// with a local commit record, plus prepared ones whose global id the
// coordinator log decided but whose shard-local commit record never
// landed. A transaction that completed 2PC normally has both its
// prepare and its commit record in the log; it must count once, not
// twice.
func committedInLog(log *wal.Log, decided map[uint64]bool) (uint64, error) {
	committed := map[oid.TxID]bool{}
	prepared := map[oid.TxID]uint64{}
	err := log.Scan(func(rec wal.Record) error {
		switch rec.Type {
		case wal.RecCommit:
			committed[rec.Tx] = true
		case wal.RecPrepare:
			prepared[rec.Tx] = rec.GTID
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	n := uint64(len(committed))
	for tx, gtid := range prepared {
		if decided[gtid] && !committed[tx] {
			n++
		}
	}
	return n, nil
}

// recover2 replays committed transactions' page images into the data
// file and truncates the log. Named to avoid shadowing builtin recover.
// It is idempotent: a crash at any point during recovery leaves the WAL
// intact (it is only reset after the page file is synced), so rerunning
// it converges to the same state.
//
// decided is the coordinator log's decision set (nil for a standalone
// manager): a prepared transaction without a local commit record — the
// crash landed between 2PC prepare and the shard-local decide — commits
// iff its global id is in the set, and is presumed aborted otherwise.
// Such a transaction is always the newest in its log (the shard's
// writer mutex is held from prepare to decide), so applying it after
// every locally committed transaction preserves redo order.
func recover2(fsys faultfs.FS, log *wal.Log, dataPath string, decided map[uint64]bool) (uint64, error) {
	type txImages struct {
		order    []oid.PageID
		imgs     map[oid.PageID][]byte
		prepared bool
		gtid     uint64
		seq      int // begin order, to apply in-doubt commits deterministically
	}
	pending := map[oid.TxID]*txImages{}
	redo := map[oid.PageID][]byte{}
	var redoOrder []oid.PageID
	var committed uint64
	var seq int
	apply := func(t *txImages) {
		committed++
		for _, pid := range t.order {
			if _, seen := redo[pid]; !seen {
				redoOrder = append(redoOrder, pid)
			}
			redo[pid] = t.imgs[pid]
		}
	}
	err := log.Scan(func(rec wal.Record) error {
		switch rec.Type {
		case wal.RecBegin:
			seq++
			pending[rec.Tx] = &txImages{imgs: map[oid.PageID][]byte{}, seq: seq}
		case wal.RecPageImage:
			t := pending[rec.Tx]
			if t == nil {
				seq++
				t = &txImages{imgs: map[oid.PageID][]byte{}, seq: seq}
				pending[rec.Tx] = t
			}
			if _, seen := t.imgs[rec.Page]; !seen {
				t.order = append(t.order, rec.Page)
			}
			t.imgs[rec.Page] = append([]byte(nil), rec.Data...)
		case wal.RecPrepare:
			if t := pending[rec.Tx]; t != nil {
				t.prepared = true
				t.gtid = rec.GTID
			}
		case wal.RecCommit:
			t := pending[rec.Tx]
			if t == nil {
				return nil
			}
			apply(t)
			delete(pending, rec.Tx)
		case wal.RecAbort:
			delete(pending, rec.Tx)
		case wal.RecCheckpoint:
			// Everything before this point is already in the data file;
			// replaying it anyway is idempotent, so no action needed.
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	// Resolve in-doubt prepared transactions by coordinator decision, in
	// begin order (deterministic; in practice at most one can exist).
	var doubt []*txImages
	for _, t := range pending {
		if t.prepared && decided[t.gtid] {
			doubt = append(doubt, t)
		}
	}
	sort.Slice(doubt, func(i, j int) bool { return doubt[i].seq < doubt[j].seq })
	for _, t := range doubt {
		apply(t)
	}
	if len(redo) > 0 {
		// Page size is the image length (all images are full pages).
		ps := 0
		for _, img := range redo {
			ps = len(img)
			break
		}
		f, err := storage.OpenFile(fsys, dataPath, ps, false)
		if err != nil {
			return 0, err
		}
		for _, pid := range redoOrder {
			if err := f.WritePage(pid, redo[pid]); err != nil {
				f.Close()
				return 0, err
			}
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return 0, err
		}
		if err := f.Close(); err != nil {
			return 0, err
		}
	}
	return committed, log.Reset()
}

// Store exposes the underlying store to the engine. Mutations are only
// legal inside Write, through the transaction's view.
func (m *Manager) Store() *storage.Store { return m.st }

// Stats returns activity counters. It is lock-free: safe to call from
// any goroutine at any time, including mid-commit. Commits and Batches
// are read under the seqlock so the pair is mutually consistent — a
// snapshot can never show a published batch without its commits.
func (m *Manager) Stats() Stats {
	var commits, batches uint64
	for {
		s1 := m.statsSeq.Load()
		if s1&1 == 0 {
			commits = m.commits.Load()
			batches = m.batches.Load()
			if m.statsSeq.Load() == s1 {
				break
			}
		}
		runtime.Gosched() // an update is in flight; it is a few adds away
	}
	return Stats{
		Commits:       commits,
		Aborts:        m.aborts.Load(),
		Checkpoints:   m.checkpoints.Load(),
		RecoveredTxns: m.recovered,
		WALBytes:      m.walBytes.Load(),
		Batches:       batches,
	}
}

// BeginRead admits a reader and returns its snapshot view, pinned at
// the epoch of the most recent commit. The caller must pass the view to
// EndRead exactly once. Readers never take the writer lock: a View is
// never stalled behind an Update or its commit fsync.
func (m *Manager) BeginRead() (*storage.TxView, error) {
	m.rmu.Lock()
	if m.closed {
		m.rmu.Unlock()
		return nil, ErrClosed
	}
	m.readers.Add(1)
	m.rmu.Unlock()
	v, err := m.st.OpenReader()
	if err != nil {
		m.readers.Done()
		return nil, err
	}
	return v, nil
}

// EndRead ends a reader: the view is invalidated (ErrTxDone on further
// use) and its epoch pin released, allowing snapshot reclamation.
func (m *Manager) EndRead(v *storage.TxView) {
	v.Close()
	m.readers.Done()
}

// Read runs fn against a snapshot of the most recently committed state.
// The view is only valid until fn returns.
func (m *Manager) Read(fn func(*storage.TxView) error) error {
	v, err := m.BeginRead()
	if err != nil {
		return err
	}
	defer m.EndRead(v)
	return fn(v)
}

// isClosed reports whether Close has begun.
func (m *Manager) isClosed() bool {
	m.rmu.Lock()
	defer m.rmu.Unlock()
	return m.closed
}

// Write runs fn as a transaction. If fn returns nil the transaction
// commits durably; if it returns an error or panics the transaction
// rolls back (and the panic resumes). Readers admitted before the
// commit becomes durable keep their snapshot; ones admitted after see
// the new state.
//
// fn runs under the writer lock but the commit fsync does not: the
// transaction is prepared — frames staged, prepared epoch advanced —
// and then, off-lock, either leads a group flush itself or waits for
// the one in flight to cover it (see group.go).
func (m *Manager) Write(fn func(*storage.TxView) error) error {
	var start time.Time
	if m.timed() {
		start = time.Now()
	}
	req, err := m.prepare(fn)
	if err != nil || req == nil {
		if err == nil {
			// Read-only "write": committed without logging anything.
			m.observeCommit(0, start)
		}
		return err
	}
	err = m.gc.commit(req, false)
	// The ack means the flush is finished with the staged frames
	// (spliced and fsynced, or rolled back and truncated), so the buffer
	// can be recycled for the next commit.
	recycleFrames(req)
	if err != nil {
		// The whole prepared suffix was rolled back by the failing
		// leader (failSuffix) before this ack; nothing left to undo here.
		return fmt.Errorf("txn: commit: %w", err)
	}
	m.observeCommit(uint64(req.txid), start)
	return nil
}

// framesPool recycles commit staging buffers: after a page-image-heavy
// commit the buffer is page-sized times touched pages, well worth
// keeping off the allocator.
var framesPool = sync.Pool{New: func() any { return new(wal.Frames) }}

// recycleFrames returns a commit's staged frames to the pool once the
// request's ack guarantees no one references them.
func recycleFrames(req *commitReq) {
	if req.fr == nil {
		return
	}
	fr := req.fr
	req.fr = nil
	fr.Reset()
	framesPool.Put(fr)
}

// observeCommit records a successful commit's whole-Update latency and
// emits its publish span. start is the zero time when untimed.
func (m *Manager) observeCommit(txid uint64, start time.Time) {
	if start.IsZero() {
		return
	}
	d := time.Since(start)
	if m.m != nil {
		m.m.CommitLatencyNS.ObserveDuration(d)
	}
	m.sink.Emit(obs.SpanEvent{Kind: obs.SpanPublish, Tx: txid, Dur: d})
}

// prepare runs fn and, on success, stages the transaction's WAL frames,
// advances the prepared epoch and enqueues it for a group flush — all
// while holding the writer lock. It returns (nil, nil) for a
// transaction with nothing to log. Any error (from fn or staging) has
// already been rolled back.
func (m *Manager) prepare(fn func(*storage.TxView) error) (*commitReq, error) {
	if err := m.lockWriter(); err != nil {
		return nil, err
	}
	defer m.mu.Unlock()
	// prepStart only feeds span durations, so without a tracer neither
	// the clock read nor the event construction happens.
	var prepStart time.Time
	if m.sink != nil {
		prepStart = time.Now()
	}
	tr := newTracker()
	v := m.st.OpenWriter(tr)
	m.nextTx++
	txid := oid.TxID(m.nextTx)
	if m.sink != nil {
		m.sink.Emit(obs.SpanEvent{Kind: obs.SpanBegin, Tx: uint64(txid)})
	}

	done := false
	defer func() {
		v.Close()
		if !done {
			// fn panicked: roll back, then let the panic continue.
			m.rollback(tr)
		}
	}()

	if err := fn(v); err != nil {
		done = true
		m.rollback(tr)
		if m.sink != nil {
			m.sink.Emit(obs.SpanEvent{Kind: obs.SpanAbort, Tx: uint64(txid), Dur: time.Since(prepStart), Err: err.Error()})
		}
		return nil, err
	}
	touched := tr.touchedPages()
	if len(touched) == 0 {
		done = true
		m.addCommitsBatches(1, 0)
		return nil, nil // read-only "write" transaction
	}
	fr, err := m.stage(txid, touched, 0, false)
	if err != nil {
		done = true
		m.rollback(tr)
		if m.sink != nil {
			m.sink.Emit(obs.SpanEvent{Kind: obs.SpanAbort, Tx: uint64(txid), Dur: time.Since(prepStart), Err: err.Error()})
		}
		return nil, fmt.Errorf("txn: commit: %w", err)
	}
	req := m.enqueue(txid, tr, fr, false)
	done = true
	if m.sink != nil {
		m.sink.Emit(obs.SpanEvent{Kind: obs.SpanPrepare, Tx: uint64(txid), Dur: time.Since(prepStart)})
	}
	return req, nil
}

// Exclusive runs fn while holding the writer lock, with no transaction
// in flight and no mutation tracking. Backup uses it to copy the data
// file without a concurrent writer or checkpoint moving it underneath;
// readers are unaffected. fn must not mutate the store.
func (m *Manager) Exclusive(fn func() error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.isClosed() {
		return ErrClosed
	}
	return fn()
}

// poison permanently disables writes on this manager (reads stay
// available; the in-memory state is still consistent).
func (m *Manager) poison(err error) {
	if m.ioErr == nil {
		m.ioErr = err
	}
}

// rollback restores before-images and drops pages allocated by the
// transaction. It only ever mutates the transaction's own live page
// copies (readers hold the pre-COW snapshot objects, whose images are
// byte-identical to what this restores), so it is invisible to
// concurrent readers. The epoch does not advance.
func (m *Manager) rollback(tr *tracker) {
	m.rollbackQuiet(tr)
	m.aborts.Add(1)
}

// rollbackQuiet is rollback without the abort count: the coordinator
// uses it for shard-local rollbacks of a transaction it accounts for
// once at its own level (and for internal cross-order restarts, which
// are not aborts at all).
func (m *Manager) rollbackQuiet(tr *tracker) {
	for id, bi := range tr.before {
		p, err := m.st.Get(id)
		if err != nil {
			// The page was touched, so it is dirty and resident; Get
			// cannot fail for it. Guard anyway.
			continue
		}
		copy(p.Data, bi.data)
		if !bi.wasDirty {
			m.st.Pool().MarkClean(p)
		}
	}
	for id := range tr.allocated {
		if _, hadBefore := tr.before[id]; !hadBefore {
			m.st.Pool().Forget(id)
		}
	}
	if err := m.st.ReloadSuper(); err != nil {
		// Superblock before-image restore cannot produce an undecodable
		// superblock unless memory was corrupted.
		panic(fmt.Sprintf("txn: rollback broke superblock: %v", err))
	}
}

// Checkpoint forces the page file current and truncates the WAL. It
// first drains the commit pipeline: the page flush must
// only ever persist effects of durable transactions (flushing a
// prepared-but-unfsynced transaction and then resetting the WAL could
// make a commit durable that its writer was told failed).
func (m *Manager) Checkpoint() error {
	for {
		m.mu.Lock()
		if m.isClosed() {
			m.mu.Unlock()
			return ErrClosed
		}
		if m.gc.pipelineIdle() {
			// Idle is stable while we hold mu: enqueueing requires it.
			break
		}
		m.mu.Unlock()
		m.gc.waitIdle() // off-lock: a failing leader may need mu
	}
	defer m.mu.Unlock()
	return m.checkpointLocked()
}

// checkpointQuiet is Checkpoint without the count and span: the
// coordinator checkpoints every shard and accounts for the whole
// operation once at its own level.
func (m *Manager) checkpointQuiet() error {
	for {
		m.mu.Lock()
		if m.isClosed() {
			m.mu.Unlock()
			return ErrClosed
		}
		if m.gc.pipelineIdle() {
			break
		}
		m.mu.Unlock()
		m.gc.waitIdle()
	}
	defer m.mu.Unlock()
	return m.checkpointLockedOpts(true)
}

func (m *Manager) checkpointLocked() error {
	return m.checkpointLockedOpts(false)
}

func (m *Manager) checkpointLockedOpts(quiet bool) error {
	if m.opts.Storage.ReadOnly {
		return ErrReadOnly
	}
	if m.ioErr != nil {
		return fmt.Errorf("%w (cause: %v)", ErrPoisoned, m.ioErr)
	}
	var start time.Time
	if m.timed() && !quiet {
		start = time.Now()
	}
	// Order matters: the WAL may only be reset after every page it
	// covers is durably in the page file. A failure anywhere leaves the
	// WAL intact, so recovery can redo the work — but it also poisons
	// the manager: after a failed flush the pool's clean/dirty
	// bookkeeping no longer proves what is on disk (and a kernel that
	// reported the fsync failure may have dropped the writes while
	// clearing the error — retrying could "succeed" without the data
	// being durable), so a later checkpoint could reset the WAL without
	// its pages actually persisted. Only a reopen re-establishes the
	// invariant.
	if err := m.st.FlushAll(); err != nil {
		err = fmt.Errorf("txn: checkpoint flush: %w", err)
		m.poison(err)
		return err
	}
	m.logMu.Lock()
	defer func() { m.walBytes.Store(m.log.Size()); m.logMu.Unlock() }()
	if _, err := m.log.AppendCheckpoint(); err != nil {
		m.poison(err)
		return err
	}
	if err := m.log.Reset(); err != nil {
		m.poison(err)
		return err
	}
	if !quiet {
		m.checkpoints.Add(1)
	}
	if !start.IsZero() {
		d := time.Since(start)
		if m.m != nil {
			m.m.CheckpointNS.ObserveDuration(d)
		}
		m.sink.Emit(obs.SpanEvent{Kind: obs.SpanCheckpoint, Dur: d})
	}
	return nil
}

// Close checkpoints and closes the database. If the final flush fails
// (or the manager was already poisoned) the WAL is deliberately NOT
// reset: it is then the only durable copy of recent commits, and the
// next open replays it. Resetting it regardless — as this method once
// did — silently discarded acked commits on a failing disk.
func (m *Manager) Close() error {
	m.rmu.Lock()
	if m.closed {
		m.rmu.Unlock()
		return nil
	}
	m.closed = true
	m.rmu.Unlock()
	// Drain and stop the tracer sink on the way out (after mu is
	// released): every span source — writers, batch leaders, the
	// checkpointer — is gone by then. A tracer stuck inside TraceSpan
	// forfeits the queue after a grace period rather than hanging Close.
	// A coordinated shard shares the coordinator's sink and leaves it
	// alone (the coordinator closes it after every shard is down).
	if m.ownSink {
		defer m.sink.Close()
	}
	// New readers are now refused; drain the in-flight ones so no
	// snapshot view outlives the store.
	m.readers.Wait()
	// Stop the background checkpointer first: it takes mu inside
	// Checkpoint, so it must be gone before Close camps on the lock.
	close(m.ckptStop)
	m.ckptWG.Wait()
	// Writer barrier: any Write that passed the closed check holds mu
	// until it has enqueued, so after one lock/unlock round trip the
	// queue holds every outstanding commit and no more can arrive. Their
	// writers lead the flushes that drain it. mu must NOT be held across
	// the wait: a failing final batch takes it to roll the suffix back.
	m.mu.Lock()
	m.mu.Unlock() //nolint:staticcheck // empty critical section is the point
	m.gc.waitIdle()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.opts.Storage.ReadOnly {
		m.log.Close()
		// Read-only stores have nothing dirty to flush.
		return m.st.CloseNoFlush()
	}
	if m.ioErr != nil {
		m.log.Close()
		m.st.CloseNoFlush()
		return fmt.Errorf("%w (cause: %v)", ErrPoisoned, m.ioErr)
	}
	var firstErr error
	if err := m.st.FlushAll(); err != nil {
		// Keep the WAL: the pages may not be durable.
		firstErr = err
	} else if err := m.log.Reset(); err != nil {
		firstErr = err
	}
	if err := m.log.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := m.st.CloseNoFlush(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
