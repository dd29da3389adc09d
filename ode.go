// Package ode is a Go reproduction of the object-versioning design of
// the Ode object database ("Object Versioning in Ode", Agrawal, Buroff,
// Gehani & Shasha, ICDE 1991).
//
// The package provides persistent objects with identity, orthogonal
// versioning (any object can grow versions at any time, at no cost
// before the first NewVersion), generic references that always bind to
// the latest version (Ptr), specific references that pin one version
// (VPtr), automatically maintained temporal and derived-from
// relationships, version deletion with derivation-tree splicing,
// configurations, contexts, and triggers — all over a from-scratch
// storage engine with a write-ahead log and crash recovery.
//
// # Quick start
//
//	db, err := ode.Open(dir, nil)
//	parts, err := ode.Register[Part](db, "Part")
//	err = db.Update(func(tx *ode.Tx) error {
//	    p, err := parts.Create(tx, &Part{Name: "ALU"})   // pnew
//	    v0, err := p.Pin(tx)                             // specific ref
//	    v1, err := p.NewVersion(tx)                      // newversion
//	    err = v1.Set(tx, &Part{Name: "ALU", Rev: 2})
//	    cur, err := p.Deref(tx)                          // latest (Rev 2)
//	    old, err := v0.Deref(tx)                         // pinned (Rev 0)
//	    return err
//	})
//
// All reads and writes happen inside db.View / db.Update transactions;
// Update transactions are atomic and durable (WAL + crash recovery).
package ode

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"ode/internal/core"
	"ode/internal/faultfs"
	"ode/internal/oid"
	"ode/internal/txn"
)

// Re-exported identifier types. OID is a generic reference to an object
// (binds to the latest version); VID identifies one immutable-identity
// version; Stamp is the logical creation clock.
type (
	// OID is an object id: a generic reference.
	OID = oid.OID
	// VID is a version id: a specific reference.
	VID = oid.VID
	// Stamp is a logical timestamp assigned at version creation.
	Stamp = oid.Stamp
	// TypeID is a registered type's catalog id.
	TypeID = oid.TypeID
)

// Errors surfaced by the public API.
var (
	ErrNoObject  = core.ErrNoObject
	ErrNoVersion = core.ErrNoVersion
	ErrNoType    = core.ErrNoType
	// ErrReadOnly reports a mutation inside a View transaction or on a
	// database opened with Options.ReadOnly.
	ErrReadOnly = txn.ErrReadOnly
	ErrClosed   = txn.ErrClosed
	// ErrShardMismatch reports Options.Shards disagreeing with the
	// shard count of an existing database directory.
	ErrShardMismatch = txn.ErrShardMismatch
	// ErrMixedLayout reports a directory containing both the legacy
	// single-file layout and the sharded layout.
	ErrMixedLayout = txn.ErrMixedLayout
	// ErrPartialLayout reports a directory containing shard files but no
	// shard-count metadata (an interrupted create or a deleted
	// shards.ode); Open refuses it rather than re-create over the
	// leftovers.
	ErrPartialLayout = txn.ErrPartialLayout
)

// (ErrTxDone is declared alongside Tx in tx.go.)

// StoragePolicy selects how version payloads are stored on disk.
type StoragePolicy = core.PayloadPolicy

// FS is the pluggable filesystem seam beneath the storage stack (see
// internal/faultfs). Production never sets it; the crash-consistency
// test matrix injects deterministic device faults through it.
type FS = faultfs.FS

// Storage policies: FullCopy stores each version whole; DeltaChain
// stores versions as binary deltas against their derived-from parent
// with periodic full keyframes (the SCCS/RCS-style policy the paper
// describes).
const (
	FullCopy   = core.FullCopy
	DeltaChain = core.DeltaChain
)

// Options configures Open. The zero value (or nil) gives a 4 KiB page
// size, synchronous commits, and full-copy version storage.
type Options struct {
	// Shards is the number of independent storage shards (heap + WAL +
	// buffer pool + commit pipeline). Objects are routed to shards by
	// id, so unrelated commits proceed in parallel on distinct shards;
	// a transaction touching one shard commits exactly as before, one
	// touching several uses two-phase commit through a coordinator log.
	// 0 adopts an existing directory's layout (GOMAXPROCS for a fresh
	// one); an explicit value must match an existing directory. 1 keeps
	// the legacy single-file layout, byte-compatible with databases
	// created before sharding existed.
	Shards int
	// Policy selects FullCopy (default) or DeltaChain version storage.
	Policy StoragePolicy
	// MaxChain bounds delta chains (keyframe interval) under DeltaChain;
	// 0 means core.DefaultMaxChain.
	MaxChain int
	// DeltaTier enables the delta storage tier (DESIGN.md §14): stored
	// full payloads of cold versions are demoted to deltas against
	// their derived-from parent — inline when a version gains a D-child
	// or loses one to pdelete, and in the background by a per-shard
	// compactor — and materialised contents are served through an
	// epoch-tagged LRU cache. Works under either Policy.
	DeltaTier bool
	// AnchorInterval bounds how far any version may sit from a full
	// anchor under DeltaTier; the compactor promotes versions found
	// deeper (e.g. after the interval was lowered). 0 means MaxChain.
	AnchorInterval int
	// MatCacheBytes is the materialisation cache budget under
	// DeltaTier; 0 means core.DefaultCacheBytes (4 MiB), negative
	// disables the cache.
	MatCacheBytes int64
	// DerefCacheBytes is the read-side dereference cache budget: a
	// sharded, epoch-tagged LRU of (latest vid, materialised content)
	// keyed by object id, letting hot Deref/latest reads on snapshot
	// transactions skip page decoding entirely. Independent of
	// DeltaTier. 0 means core.DefaultCacheBytes (4 MiB), negative
	// disables it.
	DerefCacheBytes int64
	// CompactInterval paces the background compactor under DeltaTier:
	// each physical shard is swept in bounded transactions at most this
	// often. 0 means DefaultCompactInterval; negative disables the
	// background goroutines (inline demotion and the cache remain, and
	// Compact still runs sweeps on demand).
	CompactInterval time.Duration
	// PageSize applies when creating a new database (default 4096).
	PageSize int
	// PoolPages is the buffer-pool capacity in pages (default 1024).
	PoolPages int
	// NoSync commits through the same group-commit path without the
	// fsync. Much faster; the most recent commits may be lost on a crash
	// (database integrity is preserved).
	NoSync bool
	// CheckpointBytes sets the WAL size that triggers a checkpoint;
	// <0 disables automatic checkpoints.
	CheckpointBytes int64
	// ReadOnly opens the database without write permission.
	ReadOnly bool
	// FS overrides the filesystem the data file and WAL live on. Nil
	// (the default) means the real OS; tests install a fault-injecting
	// implementation to exercise crash consistency.
	FS FS
	// Tracer, when set, receives structured span events for every
	// write transaction (begin/prepare/fsync/publish/abort) and
	// checkpoint. The tracer runs on its own goroutine behind a
	// bounded queue: it may be slow, block, or panic without ever
	// stalling or corrupting a commit — events past the queue bound
	// are dropped and counted in Metrics().TracerDropped.
	Tracer Tracer
	// TracerBuffer bounds the tracer event queue; 0 means
	// DefaultTracerBuffer (1024).
	TracerBuffer int
	// NoMetrics disables the observability layer entirely — no
	// counters, histograms, or commit-path timestamps. It exists as
	// the uninstrumented baseline for the overhead benchmark (E13);
	// production should leave it false (the instrumented hot path
	// costs a few atomic adds per commit).
	NoMetrics bool
	// DebugAddr, when non-empty, starts a debug HTTP listener on that
	// address (e.g. "127.0.0.1:6060" or "127.0.0.1:0") serving
	// GET /metrics (Prometheus text exposition) and GET /stats
	// (Stats as JSON). The listener closes with the DB; the bound
	// address is available from DebugAddr().
	DebugAddr string
}

// DB is an open Ode database.
type DB struct {
	coord *txn.Coordinator
	eng   *core.Engine
	path  string

	// background compactor state (compact.go); nil unless DeltaTier is
	// on with a non-negative CompactInterval.
	compactStop chan struct{}
	compactDone chan struct{}

	// debug HTTP listener state (metrics.go); nil without DebugAddr.
	debugLis net.Listener
	debugSrv *http.Server
}

// dir returns the database directory.
func (db *DB) dir() string { return db.path }

// Dir returns the database directory path.
func (db *DB) Dir() string { return db.path }

// Open opens the database in dir, creating it (and dir) if absent.
func Open(dir string, opts *Options) (*DB, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	topts := txn.Options{
		Shards:          o.Shards,
		NoSync:          o.NoSync,
		CheckpointBytes: o.CheckpointBytes,
		FS:              o.FS,
		NoMetrics:       o.NoMetrics,
		Tracer:          o.Tracer,
		TracerBuffer:    o.TracerBuffer,
	}
	topts.Storage.PageSize = o.PageSize
	topts.Storage.PoolPages = o.PoolPages
	topts.Storage.ReadOnly = o.ReadOnly

	fsys := o.FS
	if fsys == nil {
		fsys = faultfs.OS
	}
	if o.ReadOnly {
		// A read-only open must never create files; require one of the
		// two layouts to already exist.
		_, legacyErr := fsys.Stat(filepath.Join(dir, txn.DataFileName))
		_, shardErr := fsys.Stat(filepath.Join(dir, txn.ShardsFileName))
		if errors.Is(legacyErr, os.ErrNotExist) && errors.Is(shardErr, os.ErrNotExist) {
			return nil, fmt.Errorf("ode: no database at %s", dir)
		}
	}
	coord, err := txn.OpenCoordinator(dir, topts)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewSharded(coord, core.Options{
		Policy:          o.Policy,
		MaxChain:        o.MaxChain,
		DeltaTier:       o.DeltaTier,
		AnchorInterval:  o.AnchorInterval,
		CacheBytes:      o.MatCacheBytes,
		DerefCacheBytes: o.DerefCacheBytes,
	})
	if err != nil {
		coord.Close()
		return nil, err
	}
	db := &DB{coord: coord, eng: eng, path: dir}
	if o.DeltaTier && !o.ReadOnly && o.CompactInterval >= 0 {
		db.startCompactor(o.CompactInterval)
	}
	if o.DebugAddr != "" {
		if err := db.startDebugServer(o.DebugAddr); err != nil {
			db.stopCompactor()
			coord.Close()
			return nil, fmt.Errorf("ode: debug listener: %w", err)
		}
	}
	return db, nil
}

// Shards returns the number of logical storage shards backing this
// database — the count new allocations spread over. After a merge the
// physical file count can be higher (emptied shards are kept).
func (db *DB) Shards() int { return db.coord.N() }

// Reshard changes the logical shard count to n while the database keeps
// serving transactions: a split (for example 4 → 8) spreads existing and
// future load over more shards, a merge (8 → 4) folds shards away. Data
// moves in small transactional chunks through the ordinary two-phase
// commit path, so a crash at any point leaves the database recoverable —
// reopening finishes with a consistent map, and an interrupted reshard
// can simply be issued again to complete the migration. Concurrent
// Updates are restarted transparently when a chunk's routing flip
// commits under them. Only databases created with Shards >= 2 can
// reshard; n may exceed the original count.
func (db *DB) Reshard(n int) error {
	return db.eng.Reshard(n)
}

// ReshardProgress is the live progress snapshot of a Reshard: whether
// one is active, its target count, and the chunks, objects and versions
// migrated so far (counters freeze when the reshard completes).
type ReshardProgress = txn.ReshardProgress

// ReshardProgress reports the live progress of an in-flight Reshard:
// whether one is active, its target count, and the chunks, objects and
// versions migrated so far.
func (db *DB) ReshardProgress() txn.ReshardProgress {
	return db.eng.ReshardProgress()
}

// Close checkpoints and closes the database.
func (db *DB) Close() error {
	db.stopDebugServer()
	db.stopCompactor()
	return db.coord.Close()
}

// Update runs fn in a read-write transaction. If fn returns nil the
// transaction commits durably; on error or panic it rolls back
// completely. The Tx is invalid once fn returns (ErrTxDone on later
// use).
func (db *DB) Update(fn func(tx *Tx) error) error {
	return db.eng.Write(func(ctx *core.Tx) error {
		tx := &Tx{db: db, ctx: ctx, writable: true}
		defer func() { tx.done = true }()
		return fn(tx)
	})
}

// View runs fn in a read-only transaction against a snapshot of the
// most recently committed state. Views run fully concurrently with each
// other and with Updates: a View neither blocks nor is blocked by a
// writer (including its commit fsync). On a sharded database the
// snapshot is taken atomically with respect to cross-shard commits: an
// Update that touched several shards is visible on all of them or none
// of them, never torn (single-shard Updates committing while the
// snapshot is taken may land shard by shard, but each is confined to
// one shard, so no transaction is ever seen partially). The Tx is
// invalid once fn returns (ErrTxDone on later use).
func (db *DB) View(fn func(tx *Tx) error) error {
	return db.eng.Read(func(ctx *core.Tx) error {
		tx := &Tx{db: db, ctx: ctx}
		defer func() { tx.done = true }()
		return fn(tx)
	})
}

// Checkpoint flushes the page files and truncates the write-ahead logs
// (every shard's, and the coordinator's decision log).
func (db *DB) Checkpoint() error { return db.coord.Checkpoint() }

// Stats aggregates engine and transaction-manager counters.
type Stats struct {
	Objects     uint64
	Versions    uint64
	Commits     uint64
	Aborts      uint64
	Checkpoints uint64
	WALBytes    int64
	// Batches counts group-commit flushes — one WAL fsync each, or one
	// unsynced append under NoSync; Commits/Batches is the mean number
	// of transactions sharing one flush.
	Batches uint64
	// RecoveredTxns counts committed transactions replayed from the WAL
	// by crash recovery at Open.
	RecoveredTxns uint64
	// DerefCacheHits/Misses/Evictions/Bytes are the read-side
	// dereference cache counters (all zero when disabled).
	DerefCacheHits      uint64
	DerefCacheMisses    uint64
	DerefCacheEvictions uint64
	DerefCacheBytes     int64
	// AllocLeases counts batched id-allocator leases taken from the
	// superblock counters; AllocIDs counts ids handed out. Their ratio
	// approaches the lease size on allocation-heavy workloads.
	AllocLeases uint64
	AllocIDs    uint64
}

// Stats returns current database statistics.
func (db *DB) Stats() Stats {
	es := db.eng.Stats()
	ms := db.coord.Stats()
	ds, _ := db.eng.DerefCacheStats()
	leases, ids := db.eng.AllocStats()
	return Stats{
		Objects:             es.Objects,
		Versions:            es.Versions,
		Commits:             ms.Commits,
		Aborts:              ms.Aborts,
		Checkpoints:         ms.Checkpoints,
		WALBytes:            ms.WALBytes,
		Batches:             ms.Batches,
		RecoveredTxns:       ms.RecoveredTxns,
		DerefCacheHits:      ds.Hits,
		DerefCacheMisses:    ds.Misses,
		DerefCacheEvictions: ds.Evictions,
		DerefCacheBytes:     ds.Bytes,
		AllocLeases:         leases,
		AllocIDs:            ids,
	}
}

// CheckIntegrity validates every structural invariant of every object
// and index (expensive; meant for tests and tools).
func (db *DB) CheckIntegrity() error {
	return db.eng.Read(func(tx *core.Tx) error { return tx.CheckAll() })
}

// Engine exposes the underlying engine for the repository's internal
// tools and benchmarks. It is not part of the stable API.
func (db *DB) Engine() *core.Engine { return db.eng }
