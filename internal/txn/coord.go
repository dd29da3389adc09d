// Coordinator: the engine seam over N independent shards, each a full
// Manager (heap + pool + WAL + commit pipeline). Object ids are routed
// to shards through an epoch-versioned shard map (storage.ShardMap):
// contiguous id ranges assigned to shards, persisted in shards.ode and
// re-assignable at runtime (Reshard), so a transaction touches exactly
// the shards its objects live on:
//
//   - a transaction that mutates one shard commits through that shard's
//     own pipeline — group-commit fsync, epoch publication, counters —
//     exactly as a standalone manager would;
//   - a transaction that mutates several shards runs presumed-abort
//     two-phase commit: every dirty shard logs a prepare record
//     (fsynced, epoch advanced but NOT published), then one decision
//     record in the coordinator log (coord.ode) is the commit point,
//     then each shard logs its local commit record and publishes.
//
// The shard mutex discipline makes recovery simple: a transaction joins
// shards in ascending id order only (out-of-order joins restart the
// transaction with every shard pre-locked), and each dirty shard's
// mutex is held from prepare until the shard-local decide. An in-doubt
// prepare is therefore always the newest transaction in its shard log,
// and recovery commits it iff the coordinator log decided its global
// id — otherwise it is presumed aborted.
//
// With one shard the coordinator is a thin veneer: the directory keeps
// the legacy layout (data.ode/wal.ode, no shard metadata, no
// coordinator log) and every operation delegates to the single Manager,
// so a Shards=1 database is the pre-shard engine bit for bit.
package txn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ode/internal/faultfs"
	"ode/internal/obs"
	"ode/internal/oid"
	"ode/internal/storage"
	"ode/internal/wal"
)

// Sharded-layout file names. A single-shard database keeps the legacy
// DataFileName/WALFileName pair and none of these.
const (
	// ShardsFileName is the shard-count metadata file; its presence
	// marks a sharded directory.
	ShardsFileName = "shards.ode"
	// CoordWALFileName is the coordinator decision log for cross-shard
	// transactions.
	CoordWALFileName = "coord.ode"
)

const (
	shardsMagic   uint32 = 0x4F444553 // "ODES"
	shardsVersion uint32 = 1
	shardsMetaLen        = 12
	maxShards            = 1 << 10
)

// ShardDataFileName returns shard i's page file name.
func ShardDataFileName(i int) string { return fmt.Sprintf("data.%03d", i) }

// ShardWALFileName returns shard i's WAL file name.
func ShardWALFileName(i int) string { return fmt.Sprintf("wal.%03d", i) }

// ErrMixedLayout reports a directory holding both legacy single-shard
// files and sharded metadata — two generations of the same database.
// Nothing is guessed: the operator must remove the stale generation.
var ErrMixedLayout = errors.New("txn: directory has both legacy (data.ode) and sharded (shards.ode) layouts")

// ErrShardMismatch reports an explicit Options.Shards that contradicts
// what the directory was created with.
var ErrShardMismatch = errors.New("txn: Options.Shards does not match the directory's shard count")

// ErrPartialLayout reports a directory holding shard files (data.NNN,
// wal.NNN, coord.ode) but no shards.ode metadata — an interrupted
// create whose metadata never became durable, or a deleted metadata
// file. Re-creating shards over the leftovers could silently mix two
// generations; the operator must remove the stale files.
var ErrPartialLayout = errors.New("txn: directory has shard files but no shards.ode metadata")

// ErrRoutingEpochChanged reports that the shard map moved underneath an
// in-flight write transaction (a reshard chunk committed between the
// transaction's begin and one of its joins). The transaction's effects
// are rolled back and the whole closure is retried against the new map;
// callers inside the closure just propagate it.
var ErrRoutingEpochChanged = errors.New("txn: shard routing epoch changed; transaction restarted")

// routing is the coordinator's immutable routing bundle: the open
// physical shards and the shard map assigning id ranges to them. Every
// transaction captures one bundle pointer at begin; a pointer compare
// at join time detects concurrent map changes. The bundle is replaced
// as a whole (never mutated) under pmu, in the same critical section
// that publishes the map-flipping transaction's epochs.
type routing struct {
	ms   []*Manager
	rmap *storage.ShardMap
}

// Coordinator owns a database directory as a set of shards plus (for
// N >= 2) the cross-shard decision log. It is the engine's only entry
// point for transactions; individual Managers are reachable through
// Shards() for stats, backup and tests.
type Coordinator struct {
	// routing is the current bundle: physical shards + shard map. It is
	// swapped atomically (under pmu) when a map-changing transaction
	// commits or a reshard grows the physical shard set; readers load it
	// once and work against the snapshot.
	routing  atomic.Pointer[routing]
	opts     Options
	dir      string
	readOnly bool

	// reshardMu serialises resharding against itself and against
	// exclusive checkpoints (backup). Lock order: reshardMu before any
	// shard writer mutex.
	reshardMu sync.Mutex

	// Reshard progress counters (read by ReshardProgress / metrics).
	reshardActive  atomic.Bool
	reshardTarget  atomic.Int64
	reshardChunks  atomic.Uint64
	reshardObjects atomic.Uint64
	reshardVers    atomic.Uint64

	// cmu guards the decision log, its health, the 2PC decide phase, the
	// shards.ode frame appends and mapDirty. Lock order: shard writer
	// mutexes (ascending) before cmu; a cmu holder never takes a shard
	// mutex it does not already hold.
	cmu        sync.Mutex
	clog       *wal.Log     // nil when wrapped/legacy (no cross-shard transactions)
	cioErr     error        // coordinator log poisoned: no more 2PC decisions
	noReset    bool         // a shard decide failed; recovery needs the clog
	shardsFile faultfs.File // open shards.ode handle for frame appends
	mapDirty   bool         // newest map flip lives only in the clog; fold before reset

	// pmu makes cross-shard snapshots atomic with respect to cross-shard
	// commits: commit2PC publishes a decided transaction's epoch on every
	// dirty shard under pmu (write side), and BeginReadTx pins its
	// per-shard snapshots under pmu (read side). Without it a reader
	// pinning shards sequentially could observe a 2PC transaction on one
	// shard but not another. Single-shard publications (each individually
	// atomic) do not take it. Lock order: cmu before pmu; BeginReadTx
	// takes pmu alone.
	pmu sync.RWMutex

	// cm is the coordinator-level registry (whole-transaction latency,
	// cross-shard batch sizes, decision-log fsyncs); with one shard it
	// aliases the Manager's registry. sink is the tracer sink shared by
	// every shard; the coordinator owns it unless it wrapped a
	// standalone Manager that already did.
	cm        *obs.Metrics
	sink      *obs.Sink
	closeSink bool

	gtidSeq atomic.Uint64 // global txn ids; unique within one clog lifetime
	ctxSeq  atomic.Uint64 // span ids for coordinator-level trace events

	// Coordinator-level activity: empty and cross-shard transactions
	// (single-shard ones count on their shard). Same seqlock discipline
	// as Manager so Stats sums stay torn-free pair-wise.
	commits     atomic.Uint64
	batches     atomic.Uint64
	aborts      atomic.Uint64
	checkpoints atomic.Uint64
	statsMu     sync.Mutex
	statsSeq    atomic.Uint64
	clogBytes   atomic.Int64

	closed atomic.Bool
}

// WrapManager lifts a standalone Manager into a single-shard
// Coordinator sharing its registry and sink. It exists for callers (and
// the many tests) that build a Manager directly and hand it to the
// engine; OpenCoordinator is the normal entry point.
func WrapManager(m *Manager) *Coordinator {
	c := &Coordinator{
		opts:     m.opts,
		readOnly: m.opts.Storage.ReadOnly,
		cm:       m.m,
		sink:     m.sink,
	}
	c.routing.Store(&routing{ms: []*Manager{m}, rmap: storage.NewShardMap(1)})
	return c
}

// ms returns the current physical shard set; rmap the current map. Both
// are snapshots — a concurrent reshard swaps the bundle rather than
// mutating it.
func (c *Coordinator) ms() []*Manager          { return c.routing.Load().ms }
func (c *Coordinator) rmap() *storage.ShardMap { return c.routing.Load().rmap }

// OpenCoordinator opens (or creates) a database directory with the
// layout it finds there. Options.Shards: 0 adopts an existing layout
// (GOMAXPROCS for a fresh directory); an explicit value must match an
// existing directory's count. Shards=1 uses the legacy single-file
// layout, so such a database is indistinguishable from a pre-shard one.
func OpenCoordinator(dir string, opts Options) (*Coordinator, error) {
	fsys := opts.fsys()
	n, layout, err := detectLayout(fsys, dir)
	if err != nil {
		return nil, err
	}
	switch layout {
	case layoutFresh:
		n = opts.Shards
		if n == 0 {
			n = runtime.GOMAXPROCS(0)
		}
		if n < 1 {
			n = 1
		}
		if n > maxShards {
			return nil, fmt.Errorf("txn: Shards=%d exceeds the maximum of %d", n, maxShards)
		}
		if n == 1 {
			m, err := Create(dir, opts)
			if err != nil {
				return nil, err
			}
			return WrapManager(m), nil
		}
		return createSharded(fsys, dir, opts, n)
	case layoutLegacy:
		if opts.Shards > 1 {
			return nil, fmt.Errorf("%w: directory is legacy single-shard, Shards=%d requested", ErrShardMismatch, opts.Shards)
		}
		m, err := Open(dir, opts)
		if err != nil {
			return nil, err
		}
		return WrapManager(m), nil
	default: // layoutSharded
		// The shard count to validate Options.Shards against is the
		// LOGICAL count, which lives in the shards.ode frames (and clog
		// overlays) rather than the creation-time header; openSharded
		// checks it after resolving the map.
		_ = n
		return openSharded(fsys, dir, opts)
	}
}

type layoutKind int

const (
	layoutFresh layoutKind = iota
	layoutLegacy
	layoutSharded
)

// detectLayout classifies the directory; for a sharded one it also
// returns the shard count from the metadata file.
func detectLayout(fsys faultfs.FS, dir string) (int, layoutKind, error) {
	statOK := func(name string) (bool, error) {
		_, err := fsys.Stat(filepath.Join(dir, name))
		if err == nil {
			return true, nil
		}
		if errors.Is(err, fs.ErrNotExist) {
			return false, nil
		}
		return false, err
	}
	hasShards, err := statOK(ShardsFileName)
	if err != nil {
		return 0, layoutFresh, err
	}
	hasLegacy, err := statOK(DataFileName)
	if err != nil {
		return 0, layoutFresh, err
	}
	switch {
	case hasShards && hasLegacy:
		return 0, layoutFresh, fmt.Errorf("%w (%s)", ErrMixedLayout, dir)
	case hasShards:
		n, err := readShardsMeta(fsys, dir)
		if err != nil {
			return 0, layoutFresh, err
		}
		return n, layoutSharded, nil
	case hasLegacy:
		return 1, layoutLegacy, nil
	default:
		// Neither marker file: the directory must be recognisably empty,
		// not an interrupted sharded create (possible when a crash landed
		// before shards.ode's directory entry was durable) or a directory
		// whose metadata file was deleted. Re-creating over either would
		// mix generations, so fail loudly instead.
		if name, found, err := findShardFile(fsys, dir); err != nil {
			return 0, layoutFresh, err
		} else if found {
			return 0, layoutFresh, fmt.Errorf("%w (%s holds %s)", ErrPartialLayout, dir, name)
		}
		return 0, layoutFresh, nil
	}
}

// findShardFile reports the first sharded-layout file (data.NNN,
// wal.NNN or coord.ode) in dir. A missing directory is simply empty.
func findShardFile(fsys faultfs.FS, dir string) (string, bool, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return "", false, nil
		}
		return "", false, err
	}
	for _, name := range names {
		if name == CoordWALFileName || isShardFileName(name) {
			return name, true, nil
		}
	}
	return "", false, nil
}

// isShardFileName reports whether name matches the per-shard file
// pattern data.NNN / wal.NNN (three decimal digits).
func isShardFileName(name string) bool {
	var prefix string
	switch {
	case strings.HasPrefix(name, "data."):
		prefix = "data."
	case strings.HasPrefix(name, "wal."):
		prefix = "wal."
	default:
		return false
	}
	suffix := name[len(prefix):]
	if len(suffix) != 3 {
		return false
	}
	for _, c := range suffix {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// ShardsState is the decoded contents of shards.ode: the creation-time
// shard count from the fixed header, plus the physical shard count and
// the shard map from the newest valid frame (creation defaults when no
// frame has been appended yet).
type ShardsState struct {
	// Created is the shard count the directory was created with (the
	// immutable 12-byte header; also the frame-less default for the
	// other fields).
	Created int
	// Phys is the number of physical shards (data.NNN/wal.NNN pairs) on
	// disk. It only ever grows: a merge empties shards but keeps them.
	Phys int
	// Map is the persisted shard map. The effective map at open time may
	// be newer if undecided flips live in the coordinator log.
	Map *storage.ShardMap
	// frameEnd is the file offset just past the last valid frame; a
	// writable open truncates any torn tail there so later appends scan.
	frameEnd int64
}

// ReadShardsMeta reads and validates the shard-count metadata header and
// returns the LOGICAL shard count from the newest frame (the creation
// count when no frames exist). Exported for odedump; ReadShardsState
// returns the full picture.
func ReadShardsMeta(fsys faultfs.FS, dir string) (int, error) {
	st, err := ReadShardsState(fsys, dir)
	if err != nil {
		return 0, err
	}
	return st.Map.N(), nil
}

// ReadShardsState reads shards.ode: the creation header plus the newest
// valid map frame. Exported for odedump.
func ReadShardsState(fsys faultfs.FS, dir string) (*ShardsState, error) {
	if fsys == nil {
		fsys = faultfs.OS
	}
	path := filepath.Join(dir, ShardsFileName)
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("txn: open %s: %w", path, err)
	}
	defer f.Close()
	return readShardsState(f, path)
}

// readShardsMeta returns the creation-time count from the fixed header
// (layout detection only; the logical count lives in the frames).
func readShardsMeta(fsys faultfs.FS, dir string) (int, error) {
	st, err := ReadShardsState(fsys, dir)
	if err != nil {
		return 0, err
	}
	return st.Created, nil
}

// readShardsState parses an open shards.ode: the 12-byte creation
// header followed by zero or more length+CRC framed map images
// (appended by grow/shrink/fold). The newest VALID frame wins; a torn
// or corrupt tail falls back to the previous frame, exactly like WAL
// recovery. There is no rename on the faultfs seam, so the file is
// append-only: the header is written once at create and never rewritten
// (no in-place torn-write risk), and every later state change is a new
// frame.
func readShardsState(f faultfs.File, path string) (*ShardsState, error) {
	size, err := f.Size()
	if err != nil {
		return nil, fmt.Errorf("txn: %s: %w", path, err)
	}
	if size < shardsMetaLen {
		return nil, fmt.Errorf("txn: %s: truncated metadata (%d bytes)", path, size)
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil {
		return nil, fmt.Errorf("txn: %s: %w", path, err)
	}
	if m := binary.BigEndian.Uint32(buf[0:4]); m != shardsMagic {
		return nil, fmt.Errorf("txn: %s: bad magic %#x", path, m)
	}
	if v := binary.BigEndian.Uint32(buf[4:8]); v != shardsVersion {
		return nil, fmt.Errorf("txn: %s: unsupported version %d", path, v)
	}
	n := int(binary.BigEndian.Uint32(buf[8:12]))
	if n < 2 || n > maxShards {
		return nil, fmt.Errorf("txn: %s: implausible shard count %d", path, n)
	}
	st := &ShardsState{Created: n, Phys: n, Map: storage.NewShardMap(n), frameEnd: shardsMetaLen}
	off := int64(shardsMetaLen)
	for {
		if off+8 > size {
			break // torn or absent frame header
		}
		l := int64(binary.BigEndian.Uint32(buf[off:]))
		sum := binary.BigEndian.Uint32(buf[off+4:])
		if l < 4 || off+8+l > size {
			break // torn payload
		}
		payload := buf[off+8 : off+8+l]
		if crc32.Checksum(payload, crcTable) != sum {
			break // corrupt frame: keep the previous state
		}
		phys := int(binary.BigEndian.Uint32(payload[0:4]))
		m, err := storage.DecodeShardMap(payload[4:])
		if err != nil {
			break
		}
		if phys < st.Phys || phys > maxShards {
			break // physical count never shrinks; implausible frame
		}
		ok := m.N() >= 1 && m.N() <= phys
		for _, r := range m.Ranges() {
			if r.Shard >= phys {
				ok = false
				break
			}
		}
		if !ok {
			break
		}
		st.Phys, st.Map = phys, m
		off += 8 + l
		st.frameEnd = off
	}
	return st, nil
}

// crcTable is the Castagnoli table shards.ode frames are checksummed
// with.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendShardsFrame appends one (physN, map) frame to the open
// shards.ode handle and fsyncs it. Caller holds cmu.
func appendShardsFrame(f faultfs.File, phys int, m *storage.ShardMap) error {
	image := m.Encode()
	payload := make([]byte, 4+len(image))
	binary.BigEndian.PutUint32(payload[0:4], uint32(phys))
	copy(payload[4:], image)
	frame := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	copy(frame[8:], payload)
	end, err := f.Size()
	if err != nil {
		return fmt.Errorf("txn: %s: %w", ShardsFileName, err)
	}
	if _, err := f.WriteAt(frame, end); err != nil {
		return fmt.Errorf("txn: %s: %w", ShardsFileName, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("txn: sync %s: %w", ShardsFileName, err)
	}
	return nil
}

func writeShardsMeta(fsys faultfs.FS, dir string, n int) error {
	path := filepath.Join(dir, ShardsFileName)
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("txn: create %s: %w", path, err)
	}
	var buf [shardsMetaLen]byte
	binary.BigEndian.PutUint32(buf[0:4], shardsMagic)
	binary.BigEndian.PutUint32(buf[4:8], shardsVersion)
	binary.BigEndian.PutUint32(buf[8:12], uint32(n))
	if _, err := f.WriteAt(buf[:], 0); err != nil {
		f.Close()
		return fmt.Errorf("txn: write %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("txn: sync %s: %w", path, err)
	}
	return f.Close()
}

// shardOpts derives shard i's Options: per-shard file names, the shared
// sink, and the coordinator-log decision set for recovery.
func shardOpts(opts Options, i int, decided map[uint64]bool, sink *obs.Sink) Options {
	so := opts
	so.dataFile = ShardDataFileName(i)
	so.walFile = ShardWALFileName(i)
	so.decided = decided
	so.sink = sink
	so.coordinated = true
	so.shardID = i
	return so
}

// newShardedCoordinator assembles the coordinator shell (registry,
// sink) shards are then attached to. The routing bundle is stored by
// the caller once the shards exist.
func newShardedCoordinator(dir string, opts Options) *Coordinator {
	c := &Coordinator{
		opts:     opts,
		dir:      dir,
		readOnly: opts.Storage.ReadOnly,
	}
	if !opts.NoMetrics {
		c.cm = obs.New()
	}
	var dropped *obs.Counter
	if c.cm != nil {
		dropped = &c.cm.TracerDropped
	}
	c.sink = obs.NewSink(opts.Tracer, opts.TracerBuffer, dropped)
	c.closeSink = true
	return c
}

func createSharded(fsys faultfs.FS, dir string, opts Options, n int) (*Coordinator, error) {
	opts.Storage.FS = fsys
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("txn: mkdir %s: %w", dir, err)
	}
	// The metadata file goes first and — contents AND directory entry —
	// is durable before any shard file exists: a directory is either
	// recognisably sharded or recognisably empty, never ambiguous. The
	// content fsync alone is not enough: without the directory fsync a
	// crash could durably hold shard data files whose metadata file has
	// no directory entry (detectLayout then refuses the directory rather
	// than re-creating over it, but the invariant is that this state
	// cannot arise in the first place).
	if err := writeShardsMeta(fsys, dir, n); err != nil {
		return nil, err
	}
	if err := fsys.SyncDir(dir); err != nil {
		return nil, fmt.Errorf("txn: sync %s: %w", dir, err)
	}
	c := newShardedCoordinator(dir, opts)
	var ms []*Manager
	for i := 0; i < n; i++ {
		m, err := Create(dir, shardOpts(opts, i, nil, c.sink))
		if err != nil {
			c.teardownMs(ms)
			return nil, fmt.Errorf("txn: create shard %d: %w", i, err)
		}
		ms = append(ms, m)
	}
	clog, err := wal.OpenFS(fsys, filepath.Join(dir, CoordWALFileName))
	if err != nil {
		c.teardownMs(ms)
		return nil, err
	}
	// Make the shard files' and decision log's directory entries durable
	// before create returns: a commit fsyncs WAL contents, which proves
	// nothing if the WAL's directory entry can vanish in a power cut.
	if err := fsys.SyncDir(dir); err != nil {
		clog.Close()
		c.teardownMs(ms)
		return nil, fmt.Errorf("txn: sync %s: %w", dir, err)
	}
	// Keep shards.ode open for map-frame appends (grow, fold, reshard).
	sf, err := fsys.OpenFile(filepath.Join(dir, ShardsFileName), os.O_RDWR, 0)
	if err != nil {
		clog.Close()
		c.teardownMs(ms)
		return nil, fmt.Errorf("txn: open %s: %w", ShardsFileName, err)
	}
	c.shardsFile = sf
	c.routing.Store(&routing{ms: ms, rmap: storage.NewShardMap(n)})
	c.attachClog(clog)
	return c, nil
}

// mapOverlay is a shard-map image logged alongside a 2PC decision: a
// reshard transaction's RecShardMap record, effective iff the same gtid
// has a RecCommit decision (the flip and the data move share the
// decision record as their single commit point).
type mapOverlay struct {
	gtid  uint64
	image []byte
}

// scanDecisions reads the coordinator log's decision records into the
// set of globally-committed transaction ids, plus any shard-map overlay
// records. Only commit decisions are recorded (presumed abort); a torn
// or corrupt tail ends the scan at the last valid record exactly like
// WAL recovery does.
func scanDecisions(clog *wal.Log) (map[uint64]bool, []mapOverlay, error) {
	decided := map[uint64]bool{}
	var overlays []mapOverlay
	if err := clog.Scan(func(rec wal.Record) error {
		switch rec.Type {
		case wal.RecCommit:
			decided[uint64(rec.Tx)] = true
		case wal.RecShardMap:
			overlays = append(overlays, mapOverlay{
				gtid:  uint64(rec.Tx),
				image: append([]byte(nil), rec.Data...),
			})
		}
		return nil
	}); err != nil {
		return nil, nil, fmt.Errorf("txn: coordinator log: %w", err)
	}
	return decided, overlays, nil
}

func openSharded(fsys faultfs.FS, dir string, opts Options) (*Coordinator, error) {
	opts.Storage.FS = fsys
	// Read the persisted routing state first: physical shard count, the
	// newest folded map frame.
	flags := os.O_RDWR
	if opts.Storage.ReadOnly {
		flags = os.O_RDONLY
	}
	sf, err := fsys.OpenFile(filepath.Join(dir, ShardsFileName), flags, 0)
	if err != nil {
		return nil, fmt.Errorf("txn: open %s: %w", ShardsFileName, err)
	}
	st, err := readShardsState(sf, ShardsFileName)
	if err != nil {
		sf.Close()
		return nil, err
	}
	if !opts.Storage.ReadOnly {
		// Truncate a torn frame tail so later appends land where the
		// scanner stops reading.
		if size, err := sf.Size(); err != nil {
			sf.Close()
			return nil, fmt.Errorf("txn: %s: %w", ShardsFileName, err)
		} else if size > st.frameEnd {
			if err := sf.Truncate(st.frameEnd); err != nil {
				sf.Close()
				return nil, fmt.Errorf("txn: truncate %s: %w", ShardsFileName, err)
			}
		}
	}
	// The decision log is read next: shard recovery consults it for
	// in-doubt prepared transactions, and the map resolution below
	// consults it for decided-but-unfolded flips.
	clog, err := wal.OpenFS(fsys, filepath.Join(dir, CoordWALFileName))
	if err != nil {
		sf.Close()
		return nil, err
	}
	decided, overlays, err := scanDecisions(clog)
	if err != nil {
		clog.Close()
		sf.Close()
		return nil, err
	}
	// Effective map: the highest epoch wins between the folded frame and
	// any DECIDED overlay. An overlay without a decision is a reshard
	// chunk that prepared but never committed — presumed aborted, its
	// data never published, its map image void.
	rmap, phys := st.Map, st.Phys
	overlayWon := false
	for _, ov := range overlays {
		if !decided[ov.gtid] {
			continue
		}
		m, err := storage.DecodeShardMap(ov.image)
		if err != nil {
			clog.Close()
			sf.Close()
			return nil, fmt.Errorf("txn: coordinator log shard-map overlay: %w", err)
		}
		if m.Epoch() <= rmap.Epoch() {
			continue
		}
		// A grow folds its frame (new physical count) before any chunk
		// references the new shards, so a decided overlay can never route
		// beyond the persisted physical set.
		for _, r := range m.Ranges() {
			if r.Shard >= phys {
				clog.Close()
				sf.Close()
				return nil, fmt.Errorf("txn: shard-map overlay (epoch %d) routes to shard %d beyond the %d physical shards", m.Epoch(), r.Shard, phys)
			}
		}
		rmap, overlayWon = m, true
	}
	if opts.Shards != 0 && opts.Shards != rmap.N() {
		clog.Close()
		sf.Close()
		return nil, fmt.Errorf("%w: directory has %d, Shards=%d requested", ErrShardMismatch, rmap.N(), opts.Shards)
	}
	c := newShardedCoordinator(dir, opts)
	// Shard recovery is independent (disjoint files, the shared decided
	// map is read-only here), so the WALs replay in parallel. Every
	// PHYSICAL shard opens — emptied (merged-away) shards still hold
	// their counters and must accept future re-assignments.
	ms := make([]*Manager, phys)
	errs := make([]error, phys)
	var wg sync.WaitGroup
	for i := 0; i < phys; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ms[i], errs[i] = Open(dir, shardOpts(opts, i, decided, c.sink))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			clog.Close()
			sf.Close()
			c.teardownMs(ms)
			return nil, fmt.Errorf("txn: open shard %d: %w", i, err)
		}
	}
	// Every shard's recovery ran and reset its log; no prepare records
	// remain, so the decisions are no longer needed. If a decided map
	// overlay won, fold it into shards.ode first — the reset erases the
	// overlay's only other copy.
	if !opts.Storage.ReadOnly {
		if overlayWon {
			if err := appendShardsFrame(sf, phys, rmap); err != nil {
				clog.Close()
				sf.Close()
				c.teardownMs(ms)
				return nil, err
			}
		}
		if err := clog.Reset(); err != nil {
			clog.Close()
			sf.Close()
			c.teardownMs(ms)
			return nil, fmt.Errorf("txn: coordinator log reset: %w", err)
		}
	}
	c.shardsFile = sf
	c.routing.Store(&routing{ms: ms, rmap: rmap})
	c.attachClog(clog)
	return c, nil
}

func (c *Coordinator) attachClog(clog *wal.Log) {
	if c.cm != nil {
		clog.SetMetrics(c.cm)
	}
	c.clog = clog
	c.clogBytes.Store(clog.Size())
}

// teardownMs closes whatever shards were assembled before an
// open/create failure (nil slots from a failed parallel open are
// skipped).
func (c *Coordinator) teardownMs(ms []*Manager) {
	for _, m := range ms {
		if m != nil {
			m.Close()
		}
	}
	if c.closeSink {
		c.sink.Close()
	}
}

// Map returns the current shard map snapshot.
func (c *Coordinator) Map() *storage.ShardMap { return c.rmap() }

// N returns the LOGICAL shard count — what the map routes to and what
// DB.Shards reports. After a merge it is smaller than NumShards.
func (c *Coordinator) N() int { return c.rmap().N() }

// NumShards returns the PHYSICAL shard count: open data.NNN/wal.NNN
// pairs. It only ever grows; a merge empties shards but keeps them.
func (c *Coordinator) NumShards() int { return len(c.ms()) }

// ReadOnly reports whether the store was opened read-only.
func (c *Coordinator) ReadOnly() bool { return c.readOnly }

// Shards exposes the per-shard managers (stats, backup, tests). The
// slice must not be mutated.
func (c *Coordinator) Shards() []*Manager { return c.ms() }

// Metrics returns the coordinator-level registry; nil under NoMetrics.
// With one shard it is the Manager's own registry.
func (c *Coordinator) Metrics() *obs.Metrics { return c.cm }

func (c *Coordinator) timed() bool { return c.cm != nil || c.sink != nil }

func (c *Coordinator) addCommitsBatches(commits, batches uint64) {
	c.statsMu.Lock()
	c.statsSeq.Add(1)
	c.batches.Add(batches)
	c.commits.Add(commits)
	c.statsSeq.Add(1)
	c.statsMu.Unlock()
}

func (c *Coordinator) observeCommit(span uint64, start time.Time) {
	if start.IsZero() {
		return
	}
	d := time.Since(start)
	if c.cm != nil {
		c.cm.CommitLatencyNS.ObserveDuration(d)
	}
	c.sink.Emit(obs.SpanEvent{Kind: obs.SpanPublish, Tx: span, Dur: d})
}

func (c *Coordinator) poisonCoord(err error) {
	if c.cioErr == nil {
		c.cioErr = err
	}
	c.noReset = true
}

// Stats sums coordinator-level activity (empty and cross-shard
// transactions, coordinator checkpoints) with every shard's. WALBytes
// counts one file header once plus each log's payload, so a freshly
// checkpointed database reports the same figure regardless of N.
func (c *Coordinator) Stats() Stats {
	if c.clog == nil {
		return c.ms()[0].Stats()
	}
	var commits, batches uint64
	for {
		s1 := c.statsSeq.Load()
		if s1&1 == 0 {
			commits = c.commits.Load()
			batches = c.batches.Load()
			if c.statsSeq.Load() == s1 {
				break
			}
		}
		runtime.Gosched()
	}
	out := Stats{
		Commits:     commits,
		Batches:     batches,
		Aborts:      c.aborts.Load(),
		Checkpoints: c.checkpoints.Load(),
		WALBytes:    wal.HeaderSize,
	}
	for _, m := range c.ms() {
		s := m.Stats()
		out.Commits += s.Commits
		out.Aborts += s.Aborts
		out.Batches += s.Batches
		out.Checkpoints += s.Checkpoints
		out.RecoveredTxns += s.RecoveredTxns
		out.WALBytes += s.WALBytes - wal.HeaderSize
	}
	out.WALBytes += c.clogBytes.Load() - wal.HeaderSize
	return out
}

// crossOrderRestart is the internal panic a descending Join raises; the
// write loop catches it and reruns fn with every shard pre-locked.
type crossOrderRestart struct{ shard int }

// errCrossOrder is the in-band signal from runFn to the write loop.
var errCrossOrder = errors.New("txn: cross-shard join order restart")

// WriteTx is a coordinated write transaction's handle: one live view
// per joined shard, lazily pinned snapshots for shards it only reads.
// It is only valid inside the fn passed to Write.
type WriteTx struct {
	c         *Coordinator
	rt        *routing // bundle pinned at begin; joins validate against it
	newMap    *storage.ShardMap
	views     []*storage.TxView
	trs       []*tracker
	txids     []oid.TxID
	epochs    []uint64
	snaps     []*storage.TxView
	joined    []bool
	joinOrder []int
	maxJoined int
	all       bool
	restarted bool
	delegated bool // single-shard delegation: commit is the Manager's job
}

// NumShards returns the physical shard count the transaction can join.
func (w *WriteTx) NumShards() int { return len(w.rt.ms) }

// Map returns the shard map snapshot pinned at begin. Every id the
// transaction touches routes through this snapshot; a concurrent map
// change restarts the transaction at its next Join.
func (w *WriteTx) Map() *storage.ShardMap { return w.rt.rmap }

// SetShardMap stages a replacement shard map to commit atomically with
// the transaction's data: the image rides the decision record, and the
// routing bundle is swapped in the same pmu critical section that
// publishes the dirty shards' epochs. Reshard chunks use it to flip a
// migrated range's assignment together with the data move.
func (w *WriteTx) SetShardMap(m *storage.ShardMap) {
	if w.delegated {
		panic("txn: SetShardMap on a single-shard (legacy layout) database")
	}
	w.newMap = m
}

// Restarted reports whether this is the all-shards rerun after a
// descending join; triggers that must not re-fire consult it.
func (w *WriteTx) Restarted() bool { return w.restarted }

// Joined reports whether shard s is joined (its View is live).
func (w *WriteTx) Joined(s int) bool { return w.joined[s] }

// View returns a view of shard s: the live writer view when the shard
// is joined, otherwise a read snapshot pinned at the shard's durable
// epoch. Mutating intent must go through Join. The snapshot pin
// validates the routing bundle under pmu — the same lock a committing
// reshard swaps the bundle under — so a snapshot can never be pinned
// after a range it will be read through has already moved away.
func (w *WriteTx) View(s int) (*storage.TxView, error) {
	if w.joined[s] {
		return w.views[s], nil
	}
	if w.snaps[s] == nil {
		w.c.pmu.RLock()
		if w.c.routing.Load() != w.rt {
			w.c.pmu.RUnlock()
			return nil, ErrRoutingEpochChanged
		}
		v, err := w.rt.ms[s].BeginRead()
		w.c.pmu.RUnlock()
		if err != nil {
			return nil, err
		}
		w.snaps[s] = v
	}
	return w.snaps[s], nil
}

// Join locks shard s for writing and returns its live view. Joins must
// be ascending; a descending join panics with crossOrderRestart, which
// the write loop turns into a restart with every shard pre-locked.
// A snapshot previously handed out for s is released: callers must
// re-derive any state (tree handles) from the returned live view.
func (w *WriteTx) Join(s int) (*storage.TxView, error) {
	if w.joined[s] {
		return w.views[s], nil
	}
	if s < w.maxJoined {
		panic(crossOrderRestart{shard: s})
	}
	if w.snaps[s] != nil {
		w.rt.ms[s].EndRead(w.snaps[s])
		w.snaps[s] = nil
	}
	m := w.rt.ms[s]
	if err := m.lockWriter(); err != nil {
		return nil, err
	}
	// Routing may have moved while we waited for the writer mutex (a
	// reshard chunk committed and swapped the bundle). Holding s's mutex
	// freezes any FURTHER flip that involves s, so a successful check
	// here stays valid for the rest of the transaction's use of s.
	if w.c.routing.Load() != w.rt {
		m.unlockWriter()
		return nil, ErrRoutingEpochChanged
	}
	txid, v, tr := m.beginJoined()
	w.views[s] = v
	w.trs[s] = tr
	w.txids[s] = txid
	w.joined[s] = true
	w.joinOrder = append(w.joinOrder, s)
	if s > w.maxJoined {
		w.maxJoined = s
	}
	return v, nil
}

// endSnaps releases every read snapshot.
func (w *WriteTx) endSnaps() {
	for s, v := range w.snaps {
		if v != nil {
			w.rt.ms[s].EndRead(v)
			w.snaps[s] = nil
		}
	}
}

// release closes every joined view and unlocks the shards without
// rolling anything back (the commit paths).
func (w *WriteTx) release() {
	for i := len(w.joinOrder) - 1; i >= 0; i-- {
		s := w.joinOrder[i]
		w.views[s].Close()
		w.rt.ms[s].unlockWriter()
	}
	w.joinOrder = nil
	w.endSnaps()
}

// rollbackRelease rolls every joined shard back (newest join first —
// within a shard there is only this transaction, across shards the
// order is for symmetry with failSuffix) and unlocks them.
func (w *WriteTx) rollbackRelease() {
	for i := len(w.joinOrder) - 1; i >= 0; i-- {
		s := w.joinOrder[i]
		w.views[s].Close()
		w.rt.ms[s].rollbackQuiet(w.trs[s])
		w.rt.ms[s].unlockWriter()
	}
	w.joinOrder = nil
	w.endSnaps()
}

// Write runs fn as one transaction across however many shards it
// touches. See Manager.Write for the single-manager contract; the
// coordinated additions are the ascending-join restart and two-phase
// commit for transactions that dirtied more than one shard.
func (c *Coordinator) Write(fn func(*WriteTx) error) error {
	if c.clog == nil {
		rt := c.routing.Load()
		return rt.ms[0].Write(func(v *storage.TxView) error {
			return fn(&WriteTx{
				c:         c,
				rt:        rt,
				views:     []*storage.TxView{v},
				trs:       []*tracker{nil},
				txids:     []oid.TxID{0},
				epochs:    []uint64{0},
				snaps:     []*storage.TxView{nil},
				joined:    []bool{true},
				maxJoined: 0,
				delegated: true,
			})
		})
	}
	if c.closed.Load() {
		return ErrClosed
	}
	if c.readOnly {
		return ErrReadOnly
	}
	var start time.Time
	if c.timed() {
		start = time.Now()
	}
	span := c.ctxSeq.Add(1)
	c.sink.Emit(obs.SpanEvent{Kind: obs.SpanBegin, Tx: span})
	all, restarted := false, false
	for {
		err, restart := c.writeAttempt(fn, span, start, all, restarted)
		if restart {
			// Descending join: rerun with every shard pre-locked.
			all, restarted = true, true
			continue
		}
		if errors.Is(err, ErrRoutingEpochChanged) {
			// A reshard chunk swapped the bundle mid-transaction; the
			// attempt rolled back quietly (not an abort: nothing about fn
			// failed). Rerun against the new map.
			restarted = true
			continue
		}
		return err
	}
}

func (c *Coordinator) newWriteTx(all, restarted bool) *WriteTx {
	rt := c.routing.Load()
	n := len(rt.ms)
	return &WriteTx{
		c:         c,
		rt:        rt,
		views:     make([]*storage.TxView, n),
		trs:       make([]*tracker, n),
		txids:     make([]oid.TxID, n),
		epochs:    make([]uint64, n),
		snaps:     make([]*storage.TxView, n),
		joined:    make([]bool, n),
		maxJoined: -1,
		all:       all,
		restarted: all || restarted,
	}
}

// writeAttempt runs fn once. restart reports a descending join on a
// lazy attempt; the caller reruns with all=true (every shard joined
// ascending up front, so no further order restart is possible — a
// routing epoch change can still restart either flavor).
func (c *Coordinator) writeAttempt(fn func(*WriteTx) error, span uint64, start time.Time, all, restarted bool) (err error, restart bool) {
	wtx := c.newWriteTx(all, restarted)
	if all {
		for s := range wtx.rt.ms {
			if _, err := wtx.Join(s); err != nil {
				wtx.rollbackRelease()
				return err, false
			}
		}
	}
	err = c.runFn(wtx, fn)
	if err == errCrossOrder {
		return nil, true
	}
	if err != nil {
		wtx.rollbackRelease()
		if errors.Is(err, ErrRoutingEpochChanged) {
			// Not an abort: the closure retries against the new map.
			return err, false
		}
		c.aborts.Add(1)
		if c.sink != nil {
			c.sink.Emit(obs.SpanEvent{Kind: obs.SpanAbort, Tx: span, Dur: time.Since(start), Err: err.Error()})
		}
		return err, false
	}
	return c.commitTx(wtx, span, start), false
}

// runFn invokes fn, converting a cross-order panic into errCrossOrder
// (after a quiet rollback) and rolling back before re-raising any other
// panic.
func (c *Coordinator) runFn(wtx *WriteTx, fn func(*WriteTx) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			wtx.rollbackRelease()
			if _, ok := r.(crossOrderRestart); ok && !wtx.all {
				// Not an abort: the same fn reruns immediately.
				err = errCrossOrder
				return
			}
			c.aborts.Add(1)
			panic(r)
		}
	}()
	return fn(wtx)
}

// commitTx commits a transaction whose fn returned nil: nothing dirty,
// one dirty shard (that shard's own pipeline), or several (2PC).
func (c *Coordinator) commitTx(wtx *WriteTx, span uint64, start time.Time) error {
	var dirty []int
	for _, s := range wtx.joinOrder { // ascending by the join protocol
		if wtx.trs[s].dirty() {
			dirty = append(dirty, s)
		}
	}
	// A staged shard map rides the decision record, so a map-changing
	// transaction always commits through 2PC even when it dirtied one
	// shard or none (an empty migration chunk still flips its range).
	if wtx.newMap != nil {
		return c.commit2PC(wtx, dirty, span, start)
	}
	switch len(dirty) {
	case 0:
		wtx.release()
		c.addCommitsBatches(1, 0)
		c.observeCommit(span, start)
		return nil
	case 1:
		return c.commitSingle(wtx, dirty[0], span, start)
	default:
		return c.commit2PC(wtx, dirty, span, start)
	}
}

func (c *Coordinator) abortObserve(span uint64, start time.Time, err error) {
	c.aborts.Add(1)
	if c.sink != nil {
		c.sink.Emit(obs.SpanEvent{Kind: obs.SpanAbort, Tx: span, Dur: time.Since(start), Err: err.Error()})
	}
}

// commitSingle routes a transaction that dirtied exactly one shard
// through that shard's own commit pipeline; counters and batch/fsync
// accounting land on the shard, exactly as a standalone commit would.
func (c *Coordinator) commitSingle(wtx *WriteTx, s int, span uint64, start time.Time) error {
	m := wtx.rt.ms[s]
	txid, tr := wtx.txids[s], wtx.trs[s]
	fr, err := m.stage(txid, tr.touchedPages(), 0, false)
	if err != nil {
		wtx.rollbackRelease()
		c.abortObserve(span, start, err)
		return fmt.Errorf("txn: commit: %w", err)
	}
	req := m.enqueue(txid, tr, fr, false)
	if c.sink != nil {
		c.sink.Emit(obs.SpanEvent{Kind: obs.SpanPrepare, Tx: span, Dur: time.Since(start)})
	}
	wtx.release()
	err = m.gc.commit(req, false)
	recycleFrames(req)
	if err != nil {
		// The failing leader rolled the whole suffix back (failSuffix)
		// and accounted for the abort before this ack.
		return fmt.Errorf("txn: commit: %w", err)
	}
	c.observeCommit(span, start)
	return nil
}

// commit2PC is presumed-abort two-phase commit over the dirty shards
// (ascending). Phase 1 makes each shard's prepare record durable; the
// decision record in the coordinator log is the commit point; phase 3
// writes each shard's local commit record and publishes its epoch. The
// shard mutexes are held throughout, so an in-doubt prepare is always
// the newest transaction in its shard log.
func (c *Coordinator) commit2PC(wtx *WriteTx, dirty []int, span uint64, start time.Time) error {
	gtid := c.gtidSeq.Add(1)
	var perr error
	for _, s := range dirty {
		m := wtx.rt.ms[s]
		txid, tr := wtx.txids[s], wtx.trs[s]
		fr, err := m.stage(txid, tr.touchedPages(), gtid, true)
		if err != nil {
			perr = err
			break
		}
		req := m.enqueue(txid, tr, fr, true)
		// Commit while still holding the shard mutex. If a batch fails,
		// the prepare is acked with an error before any other rollback
		// needs the mutex (or, when this writer leads the batch, the
		// batch is rolled back here, the prepare first and its tracker
		// emptied), so the rollback below keeps newest-first order
		// shard-wide.
		err = m.gc.commit(req, true)
		recycleFrames(req)
		if err != nil {
			perr = err
			break
		}
		wtx.epochs[s] = req.epoch
	}
	if perr != nil {
		// Presumed abort: no decision record exists, so the durable
		// prepare records on the shards that got one are dead weight a
		// future recovery ignores.
		wtx.rollbackRelease()
		c.abortObserve(span, start, perr)
		return fmt.Errorf("txn: commit: %w", perr)
	}
	if c.sink != nil {
		c.sink.Emit(obs.SpanEvent{Kind: obs.SpanPrepare, Tx: span, Batch: len(dirty), Dur: time.Since(start)})
	}

	// Phase 2: the decision record is the commit point. A staged shard
	// map is logged immediately before it under the same gtid — recovery
	// applies the overlay iff the decision exists, so the flip and the
	// data move share one atomic commit point.
	c.cmu.Lock()
	derr := c.cioErr
	if derr != nil {
		derr = fmt.Errorf("%w (cause: %v)", ErrPoisoned, derr)
	} else {
		startLSN := c.clog.End()
		if wtx.newMap != nil {
			_, derr = c.clog.AppendShardMap(oid.TxID(gtid), wtx.newMap.Encode())
		}
		if derr == nil {
			_, derr = c.clog.AppendCommit(oid.TxID(gtid))
		}
		if derr == nil && !c.opts.NoSync {
			derr = c.clog.Sync()
		}
		if derr != nil {
			// The decision must not survive: once we report this commit
			// failed, recovery finding the record would resurrect it.
			if terr := c.clog.TruncateTo(startLSN); terr != nil {
				c.poisonCoord(fmt.Errorf("cannot erase failed decision from coordinator log: %w", terr))
			}
		}
		c.clogBytes.Store(c.clog.Size())
	}
	if derr != nil {
		c.cmu.Unlock()
		wtx.rollbackRelease()
		c.abortObserve(span, start, derr)
		return fmt.Errorf("txn: commit: %w", derr)
	}

	// Phase 3: shard-local decides, still under cmu so a concurrent
	// checkpoint cannot reset the decision log while any shard still
	// needs its record. The decide records (with their fsyncs) are
	// written first, outside pmu; then every dirty shard's epoch is
	// published under pmu as one atomic step, so a cross-shard reader
	// (BeginReadTx pins all its shards under pmu) sees this transaction
	// on all of its shards or on none. A decide failure poisons that
	// shard but the commit IS durable (prepare record + decision); the
	// remaining shards — and the poisoned one — still publish.
	var decErr error
	for _, s := range dirty {
		if err := wtx.rt.ms[s].decideJoinedLog(wtx.txids[s]); err != nil && decErr == nil {
			decErr = err
		}
	}
	c.pmu.Lock()
	for _, s := range dirty {
		wtx.rt.ms[s].publishJoined(wtx.epochs[s])
	}
	if wtx.newMap != nil {
		// The bundle swap shares the epoch-publication critical section:
		// a reader pinning its snapshots under pmu sees the new map with
		// the moved data, or the old map with the data still at the
		// source — never a mix.
		c.routing.Store(&routing{ms: wtx.rt.ms, rmap: wtx.newMap})
		c.mapDirty = true // newest flip lives only in the clog until folded
	}
	c.pmu.Unlock()
	if decErr != nil {
		// Recovery of the poisoned shard needs the decision record.
		c.noReset = true
	}
	c.cmu.Unlock()
	wtx.release()
	if c.cm != nil {
		c.cm.BatchSize.Observe(1)
	}
	c.addCommitsBatches(1, 1)
	if decErr != nil {
		return fmt.Errorf("txn: %w", decErr)
	}
	c.observeCommit(span, start)
	return nil
}

// ReadTx is a coordinated read transaction: one snapshot view per
// shard, each pinned at that shard's durable epoch at begin time. The
// pins are taken under pmu, which excludes 2PC epoch publication: a
// cross-shard transaction is therefore visible on either all of its
// shards or none of them. Single-shard commits publishing concurrently
// can still land between two pins — but each is confined to one shard,
// so every shard's view remains individually consistent and no
// transaction is ever seen torn. A single-shard read (the common case)
// is exactly a Manager.Read.
type ReadTx struct {
	c     *Coordinator
	rt    *routing
	views []*storage.TxView
}

// View returns the pinned snapshot of shard s.
func (r *ReadTx) View(s int) *storage.TxView { return r.views[s] }

// N returns the physical shard count (one pinned view per shard); Map
// the shard map snapshot the views were pinned under.
func (r *ReadTx) N() int                 { return len(r.views) }
func (r *ReadTx) Map() *storage.ShardMap { return r.rt.rmap }

// BeginReadTx pins a snapshot on every shard, atomically with respect
// to cross-shard commits (see ReadTx). Pair with EndReadTx. The
// routing bundle is captured under the same pmu hold as the pins, so
// the map matches the data: a migrated range's snapshot comes from the
// shard the captured map routes it to.
func (c *Coordinator) BeginReadTx() (*ReadTx, error) {
	if c.clog != nil {
		// Readers share pmu among themselves; only a 2PC decide (the
		// write side) excludes them, and only for the duration of the
		// shard-local decide records — not the decision fsync.
		c.pmu.RLock()
		defer c.pmu.RUnlock()
	}
	rt := c.routing.Load()
	views := make([]*storage.TxView, len(rt.ms))
	for i, m := range rt.ms {
		v, err := m.BeginRead()
		if err != nil {
			for j := 0; j < i; j++ {
				rt.ms[j].EndRead(views[j])
			}
			return nil, err
		}
		views[i] = v
	}
	return &ReadTx{c: c, rt: rt, views: views}, nil
}

// EndReadTx releases every shard pin.
func (c *Coordinator) EndReadTx(r *ReadTx) {
	for i, v := range r.views {
		r.rt.ms[i].EndRead(v)
	}
}

// Read runs fn against a snapshot of every shard.
func (c *Coordinator) Read(fn func(*ReadTx) error) error {
	r, err := c.BeginReadTx()
	if err != nil {
		return err
	}
	defer c.EndReadTx(r)
	return fn(r)
}

// foldShardMap persists the current shard map as a shards.ode frame if
// the newest flip still lives only in the decision log. It MUST run
// (and succeed) before any clog.Reset: the reset erases the overlay
// record that is the flip's only durable copy. Caller holds cmu.
func (c *Coordinator) foldShardMap() error {
	if !c.mapDirty {
		return nil
	}
	rt := c.routing.Load()
	if err := appendShardsFrame(c.shardsFile, len(rt.ms), rt.rmap); err != nil {
		return err
	}
	c.mapDirty = false
	return nil
}

// Checkpoint checkpoints every shard (draining each shard's pipeline)
// and then resets the decision log: once every shard WAL is empty no
// prepare record can reference a decision. The reset is skipped if a
// poisoned shard still needs the log for its recovery, or if the
// current shard map could not be folded into shards.ode first.
func (c *Coordinator) Checkpoint() error {
	if c.clog == nil {
		return c.ms()[0].Checkpoint()
	}
	if c.closed.Load() {
		return ErrClosed
	}
	var start time.Time
	if c.timed() {
		start = time.Now()
	}
	for i, m := range c.ms() {
		if err := m.checkpointQuiet(); err != nil {
			return fmt.Errorf("txn: checkpoint shard %d: %w", i, err)
		}
	}
	c.cmu.Lock()
	if c.cioErr == nil && !c.noReset {
		if err := c.foldShardMap(); err != nil {
			c.cmu.Unlock()
			return fmt.Errorf("txn: checkpoint: %w", err)
		}
		if err := c.clog.Reset(); err != nil {
			c.poisonCoord(err)
			c.cmu.Unlock()
			return fmt.Errorf("txn: coordinator log reset: %w", err)
		}
		c.clogBytes.Store(c.clog.Size())
	}
	c.cmu.Unlock()
	c.checkpoints.Add(1)
	if !start.IsZero() {
		d := time.Since(start)
		if c.cm != nil {
			c.cm.CheckpointNS.ObserveDuration(d)
		}
		c.sink.Emit(obs.SpanEvent{Kind: obs.SpanCheckpoint, Dur: d})
	}
	return nil
}

// CheckpointExclusive checkpoints every shard and runs fn while STILL
// holding every shard's writer mutex (acquired ascending, pipelines
// drained). Because a cross-shard transaction holds its dirty shards'
// mutexes from prepare through the shard-local decide, holding all of
// them guarantees no 2PC transaction is partially applied anywhere; the
// flushes and fn then see one atomic cut of the whole database. When fn
// runs, the data files hold exactly the committed state and the shard
// WALs and decision log are empty. Backup uses this to copy a
// consistent snapshot — checkpointing and copying under separate
// acquisitions (the old Checkpoint-then-Exclusive sequence) left a
// window where a 2PC commit reached only the later-checkpointed shards'
// data files, giving the copy half a transaction with no log to repair
// it.
func (c *Coordinator) CheckpointExclusive(fn func() error) error {
	if c.closed.Load() {
		return ErrClosed
	}
	single := c.clog == nil
	if !single {
		// Exclude live resharding for the whole quiesced section: the
		// physical shard set and the map are frozen while fn runs, so
		// backup's file enumeration cannot race a grow.
		c.reshardMu.Lock()
		defer c.reshardMu.Unlock()
	}
	ms := c.ms()
	locked := 0
	var lockErr error
	for _, m := range ms {
		if lockErr = m.lockWriterDrained(); lockErr != nil {
			break
		}
		locked++
	}
	if lockErr != nil {
		for i := locked - 1; i >= 0; i-- {
			ms[i].unlockWriter()
		}
		return lockErr
	}
	defer func() {
		for i := len(ms) - 1; i >= 0; i-- {
			ms[i].unlockWriter()
		}
	}()
	var start time.Time
	if !single && c.timed() {
		start = time.Now()
	}
	for i, m := range ms {
		// The wrapped single manager accounts for its own checkpoint
		// (count + latency), exactly like Manager.Checkpoint; a sharded
		// coordinator checkpoints quietly and counts once at its level.
		if err := m.checkpointLockedOpts(!single); err != nil {
			if single {
				return err
			}
			return fmt.Errorf("txn: checkpoint shard %d: %w", i, err)
		}
	}
	if !single {
		c.cmu.Lock()
		if c.cioErr == nil && !c.noReset {
			if err := c.foldShardMap(); err != nil {
				c.cmu.Unlock()
				return fmt.Errorf("txn: checkpoint: %w", err)
			}
			if err := c.clog.Reset(); err != nil {
				c.poisonCoord(err)
				c.cmu.Unlock()
				return fmt.Errorf("txn: coordinator log reset: %w", err)
			}
			c.clogBytes.Store(c.clog.Size())
		}
		c.cmu.Unlock()
		c.checkpoints.Add(1)
		if !start.IsZero() {
			d := time.Since(start)
			if c.cm != nil {
				c.cm.CheckpointNS.ObserveDuration(d)
			}
			c.sink.Emit(obs.SpanEvent{Kind: obs.SpanCheckpoint, Dur: d})
		}
	}
	return fn()
}

// Exclusive runs fn with every shard's writer mutex held (ascending):
// no transaction, checkpoint or 2PC decision is in flight anywhere
// while fn runs. Backup uses it to copy the directory's files.
func (c *Coordinator) Exclusive(fn func() error) error {
	ms := c.ms()
	var run func(i int) error
	run = func(i int) error {
		if i == len(ms) {
			return fn()
		}
		return ms[i].Exclusive(func() error { return run(i + 1) })
	}
	return run(0)
}

// Close closes every shard in order, then folds the shard map and
// resets (if healthy) and closes the decision log, then the shared
// tracer sink.
func (c *Coordinator) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	if c.clog == nil {
		return c.ms()[0].Close()
	}
	var firstErr error
	for _, m := range c.ms() {
		if err := m.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	c.cmu.Lock()
	if c.clog != nil {
		if firstErr == nil && c.cioErr == nil && !c.noReset && !c.readOnly {
			// The reset erases any unfolded map overlay, so the fold gates
			// it: fold failure leaves the log intact for the next recovery.
			if err := c.foldShardMap(); err != nil {
				firstErr = err
			} else if err := c.clog.Reset(); err != nil {
				firstErr = err
			}
		}
		if err := c.clog.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if c.shardsFile != nil {
		if err := c.shardsFile.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	c.cmu.Unlock()
	if c.closeSink {
		c.sink.Close()
	}
	return firstErr
}
