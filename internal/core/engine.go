// Package core implements the Ode versioned-object engine — the paper's
// primary contribution. It provides:
//
//   - persistent objects with identity (pnew → Create, oids);
//   - version orthogonality: any object can grow versions at any time
//     with no type-level declaration and no cost before the first
//     newversion (§2, §3);
//   - object ids as generic references that always dereference to the
//     latest version, and version ids as specific references (§3, §4);
//   - newversion with automatically maintained temporal (total order by
//     creation) and derived-from (tree) relationships (§2, §4);
//   - pdelete of a whole object or a single version with derivation-tree
//     splicing (§4.4);
//   - traversals Dprevious, Tprevious, Dchildren/alternatives, version
//     histories, and as-of temporal lookup (§4.5);
//   - delta storage of version payloads against their derived-from
//     parent (§2's SCCS/RCS deltas), switchable per database;
//   - configurations and contexts built over the primitives (§5);
//   - trigger events so notification/percolation policies can be built
//     outside the kernel (§1, §7).
//
// Every engine operation runs on a Tx — a per-transaction handle that
// routes each object to the shard its oid lives on through the
// epoch-versioned shard map snapshot pinned at begin. Under a
// single shard the Tx binds exactly one storage view, heap and tree set,
// as it always did; under N shards it lazily joins the shards the
// transaction touches and the transaction layer commits across them with
// two-phase commit. Engine.Write and Engine.Read mint the Tx and scope
// its lifetime to the callback; read transactions run against
// epoch-pinned snapshots and never block behind writers.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ode/internal/btree"
	"ode/internal/codec"
	"ode/internal/derefcache"
	"ode/internal/matcache"
	"ode/internal/obs"
	"ode/internal/oid"
	"ode/internal/storage"
	"ode/internal/trigger"
	"ode/internal/txn"
)

// ErrTxDone reports use of a transaction handle whose transaction has
// ended (re-exported by the ode package).
var ErrTxDone = storage.ErrTxDone

// Superblock counter slots (on-disk format). Each shard has its own
// counter set; oids and vids are composed as SlotBase(shard)|raw so an
// id names its BIRTH shard forever, while its current placement is a
// range lookup in the shard map (storage.ShardMap) and can move. The
// stamp counter holds the per-shard high-water mark of the engine's
// global stamp clock.
const (
	ctrOID     = 0
	ctrVID     = 1
	ctrStamp   = 2
	ctrObjects = 3
	ctrVersion = 4
)

// Superblock root slots (on-disk format). Every shard carries the full
// root set; the catalog, config (named configurations/contexts) and
// named-index trees are authoritative on shard 0 only, while annotation
// records live in the config tree of the shard that owns the annotated
// object.
const (
	rootObjTable = 0
	rootVerIdx   = 1
	rootTempIdx  = 2
	rootCatalog  = 3
	rootExtent   = 4
	rootConfig   = 5
	rootVidIdx   = 6
)

// Errors surfaced by the engine (re-exported by the ode package).
var (
	ErrNoObject   = errors.New("ode: no such object")
	ErrNoVersion  = errors.New("ode: no such version")
	ErrNoType     = errors.New("ode: type not registered")
	ErrWrongType  = errors.New("ode: object has different type")
	ErrCorrupt    = errors.New("ode: corrupt database structure")
	ErrChainDepth = errors.New("ode: delta chain too deep")
)

// PayloadPolicy selects how version payloads are stored.
type PayloadPolicy uint8

const (
	// FullCopy stores every version's payload in full.
	FullCopy PayloadPolicy = iota
	// DeltaChain stores a version as a binary delta against its
	// derived-from parent, up to MaxChain links; every MaxChain-th
	// version is a full keyframe bounding materialisation cost.
	DeltaChain
)

// Options configures the engine.
type Options struct {
	Policy PayloadPolicy
	// MaxChain bounds delta chains under DeltaChain; 0 means
	// DefaultMaxChain.
	MaxChain int

	// DeltaTier enables the delta storage tier (DESIGN.md §14): stored
	// full payloads are demoted to deltas against their D-parent when
	// they gain a dependent child or when the compactor sweeps them,
	// and materialised contents flow through the epoch-tagged LRU
	// cache. Orthogonal to Policy — FullCopy with DeltaTier writes full
	// copies that are demoted after the fact; DeltaChain with DeltaTier
	// additionally reclaims the full payloads DeltaChain leaves behind
	// (detached dependents, updated versions).
	DeltaTier bool
	// AnchorInterval bounds the materialisation chain the delta tier
	// may build: a version is only demoted while every dependent chain
	// through it stays within this many links of a full anchor, and the
	// compactor promotes versions found deeper (interval shrunk across
	// a reopen). 0 means MaxChain.
	AnchorInterval int
	// CacheBytes is the materialisation cache budget; 0 means
	// DefaultCacheBytes, negative disables the cache.
	CacheBytes int64

	// DerefCacheBytes is the read-side dereference cache budget (latest
	// version id + materialised content keyed by oid, epoch-tagged like
	// the materialisation cache); 0 means DefaultDerefCacheBytes,
	// negative disables it. Unlike CacheBytes it is independent of the
	// delta tier: the hot Deref path benefits under every policy.
	DerefCacheBytes int64
}

// DefaultMaxChain is the delta-chain keyframe interval.
const DefaultMaxChain = 16

// DefaultCacheBytes is the materialisation cache budget when the delta
// tier is on and Options.CacheBytes is zero.
const DefaultCacheBytes = 4 << 20

// DefaultDerefCacheBytes is the dereference cache budget when
// Options.DerefCacheBytes is zero.
const DefaultDerefCacheBytes = 4 << 20

// Engine is the versioned-object store. It holds only cross-transaction
// state; everything a single transaction needs lives on its Tx.
type Engine struct {
	c *txn.Coordinator
	// single marks a wrapped legacy (Shards=1 layout) database: no
	// coordinator log, no shard map changes, bit-for-bit pre-shard
	// behavior (notably the stamp clock living in the shard counter).
	single bool
	bus    *trigger.Bus
	opts   Options

	// m is the coordinator's observability registry (nil under
	// NoMetrics); the engine records version-chain walk lengths into it.
	m *obs.Metrics

	// cache is the materialisation cache (nil unless the delta tier is
	// on and Options.CacheBytes >= 0). Entries are tagged with the
	// (shard, epoch) they were built at and only served to readers
	// pinned at exactly that pair, so no invalidation is needed.
	cache *matcache.Cache

	// dcache is the read-side dereference cache (nil when disabled):
	// oid → (latest vid, content), tagged with the reading snapshot's
	// (shard, epoch) under the same exact-match rule as cache, so a hot
	// Deref skips the header probe and payload walk entirely and a live
	// reshard can never serve stale placement.
	dcache *derefcache.Cache

	// heapSpace holds each shard's heap free-space cache, shared across
	// write transactions (writers on one shard are serialised by its
	// writer mutex; hsMu orders the reset-after-abort against the next
	// writer's pickup). heapRewind marks the caches a rollback went
	// under; the shard's next writer rewinds its sweep. The slices grow
	// under hsMu when a reshard adds physical shards.
	hsMu       sync.Mutex
	heapSpace  []*storage.HeapState
	heapRewind []bool

	// alloc holds the per-shard batched id-allocation leases (alloc.go).
	// Like heapSpace, each shard's state is used only under that shard's
	// writer mutex; the registry grows when a reshard adds shards.
	alloc allocState

	// stamp is the global version-creation clock under N > 1: stamps
	// must be comparable across shards (AsOf, CurrentStamp), so they
	// cannot be composed per shard the way oids are. Each allocation
	// mirrors the clock into the allocating shard's ctrStamp counter, so
	// reopening seeds the clock from the per-shard maxima. With one
	// shard the counter itself is the clock, exactly as before sharding.
	stamp atomic.Uint64

	// cursor round-robins fresh transactions across shards for object
	// allocation; a transaction's later allocations stay on its first
	// shard so the common transaction commits without 2PC.
	cursor atomic.Uint64

	// idxExist notes that at least one named secondary index exists, in
	// which case write transactions join shard 0 up front: trigger-driven
	// index maintenance writes shard 0, and joining it first keeps the
	// ascending join order cheap.
	idxExist atomic.Bool
}

// shardTx binds one transaction's presence on one shard: the storage
// view plus tree and heap handles for that shard. All shard-local engine
// logic is shardTx methods; the routing Tx (route.go) picks the shardTx
// an operation belongs to and delegates.
type shardTx struct {
	e    *Engine
	rt   *Tx // the routing transaction this bundle belongs to
	s    int // shard slot
	st   *storage.TxView
	heap *storage.Heap
	bus  *trigger.Bus
	opts Options

	objTable btree.Tree // oid → object header
	verIdx   btree.Tree // oid+vid → version record
	tempIdx  btree.Tree // oid+stamp → vid
	catalog  btree.Tree // type names ↔ ids (authoritative on shard 0)
	extent   btree.Tree // typeid+oid → ()
	config   btree.Tree // configurations, contexts, annotations
	vidIdx   btree.Tree // vid → oid

	// indexes caches named secondary-index trees opened by this
	// transaction (roots live in shard 0's catalog tree).
	indexes map[string]*btree.Tree

	// al caches this shard's batched id-allocator state (alloc.go),
	// resolved on first allocation.
	al *shardAlloc

	writable bool
}

// New wires an engine over a single standalone manager, creating the
// persistent structures on first use. It is the single-shard form used
// by tests and tools that build a Manager directly; Open-level callers
// go through NewSharded.
func New(mgr *txn.Manager, opts Options) (*Engine, error) {
	return NewSharded(txn.WrapManager(mgr), opts)
}

// NewSharded wires an engine over a shard coordinator, creating the
// persistent structures on every shard on first use.
func NewSharded(c *txn.Coordinator, opts Options) (*Engine, error) {
	if opts.MaxChain == 0 {
		opts.MaxChain = DefaultMaxChain
	}
	if opts.AnchorInterval == 0 {
		opts.AnchorInterval = opts.MaxChain
	}
	phys := c.NumShards()
	e := &Engine{
		c:          c,
		single:     phys == 1,
		bus:        trigger.NewBus(),
		opts:       opts,
		m:          c.Metrics(),
		heapSpace:  make([]*storage.HeapState, phys),
		heapRewind: make([]bool, phys),
	}
	for i := range e.heapSpace {
		e.heapSpace[i] = storage.NewHeapState()
	}
	if opts.DeltaTier && opts.CacheBytes >= 0 {
		cap := opts.CacheBytes
		if cap == 0 {
			cap = DefaultCacheBytes
		}
		e.cache = matcache.New(cap, 16)
	}
	if opts.DerefCacheBytes >= 0 {
		cap := opts.DerefCacheBytes
		if cap == 0 {
			cap = DefaultDerefCacheBytes
		}
		e.dcache = derefcache.New(cap, 16, storage.MaxSlots)
	}
	// Initialize any physical shard still lacking the engine trees: all
	// of them on a fresh database, and — after a crash between a
	// reshard's grow step and its provisioning transaction — just the
	// newly created ones. One transaction, ascending joins, 2PC when it
	// spans shards.
	var missing []int
	if err := c.Read(func(r *txn.ReadTx) error {
		for s := 0; s < r.N(); s++ {
			if r.View(s).Root(rootObjTable) == oid.NilPage {
				missing = append(missing, s)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if len(missing) > 0 && !c.ReadOnly() {
		err := c.Write(func(w *txn.WriteTx) error {
			for _, s := range missing {
				v, err := w.Join(s)
				if err != nil {
					return err
				}
				for _, slot := range []int{
					rootObjTable, rootVerIdx, rootTempIdx, rootCatalog,
					rootExtent, rootConfig, rootVidIdx,
				} {
					t, err := btree.Create(v)
					if err != nil {
						return err
					}
					v.SetRoot(slot, t.Root())
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("core: init structures: %w", err)
		}
	}
	// Seed the stamp clock from the per-shard high-water marks and note
	// whether any named index exists (write transactions then join shard
	// 0 eagerly; see idxExist).
	if err := c.Read(func(r *txn.ReadTx) error {
		var max uint64
		for s := 0; s < r.N(); s++ {
			if v := r.View(s).Counter(ctrStamp); v > max {
				max = v
			}
		}
		e.stamp.Store(max)
		cat := btree.Open(r.View(0), r.View(0).Root(rootCatalog))
		found := false
		err := cat.AscendPrefix([]byte(idxRootPrefix), func(_, _ []byte) (bool, error) {
			found = true
			return false, nil
		})
		e.idxExist.Store(found)
		return err
	}); err != nil {
		return nil, err
	}
	return e, nil
}

// newShardTx binds a shard bundle to v, opening every tree at the root
// the view's superblock snapshot records.
func (e *Engine) newShardTx(v *storage.TxView, hs *storage.HeapState, rt *Tx, s int, writable bool) *shardTx {
	return &shardTx{
		e:        e,
		rt:       rt,
		s:        s,
		st:       v,
		heap:     storage.NewHeap(v, hs),
		bus:      e.bus,
		opts:     e.opts,
		objTable: *btree.Open(v, v.Root(rootObjTable)),
		verIdx:   *btree.Open(v, v.Root(rootVerIdx)),
		tempIdx:  *btree.Open(v, v.Root(rootTempIdx)),
		catalog:  *btree.Open(v, v.Root(rootCatalog)),
		extent:   *btree.Open(v, v.Root(rootExtent)),
		config:   *btree.Open(v, v.Root(rootConfig)),
		vidIdx:   *btree.Open(v, v.Root(rootVidIdx)),
		writable: writable,
	}
}

// takeHeapSpace hands out shard s's heap free-space cache, growing the
// slice when a reshard has added physical shards. The caller holds s's
// writer mutex (it joined the shard), which serialises use.
func (e *Engine) takeHeapSpace(s int) *storage.HeapState {
	e.hsMu.Lock()
	defer e.hsMu.Unlock()
	for len(e.heapSpace) <= s {
		e.heapSpace = append(e.heapSpace, storage.NewHeapState())
		e.heapRewind = append(e.heapRewind, false)
	}
	hs := e.heapSpace[s]
	if hs == nil {
		hs = storage.NewHeapState()
		e.heapSpace[s] = hs
	}
	if e.heapRewind[s] {
		hs.Rewind()
		e.heapRewind[s] = false
	}
	return hs
}

// resetHeapSpaces makes every shard's next writer rewind its heap
// cache's sweep. Called after an abort: the rollback reverted pages
// underneath the shared caches; their entries self-heal (every entry is
// re-verified before use), but a page the rollback gave space back to
// stays under-counted until the sweep passes it again. The entries are
// kept: discarding them sent every insert to a fresh page until the
// 16-page-per-insert sweep had covered the file again, so a workload
// with frequent 2PC restarts grew the heap without bound. Allocation
// leases are dropped: re-leasing from the persisted counter is always
// safe, while a lease minted against rolled-back counter state is
// simpler to discard than to reason about.
func (e *Engine) resetHeapSpaces() {
	e.hsMu.Lock()
	for i := range e.heapRewind {
		e.heapRewind[i] = true
	}
	e.hsMu.Unlock()
	e.alloc.reset()
}

// newOID allocates an oid on this shard: the shard-local counter
// composed with the shard slot (identity under one shard). The routing
// Tx only allocates on shards whose home-range tail is still their own
// (ShardMap.Allocatable), so a fresh id routes to its birth shard.
// Allocation draws from the shard's batched lease (alloc.go), so the
// common case costs no superblock touch.
func (tx *shardTx) newOID() oid.OID {
	return oid.OID(storage.Compose(tx.allocID(ctrOID), tx.s))
}

// newVID allocates a vid on this shard, composed like newOID. Unlike a
// fresh oid, the value can fall in a range migrated elsewhere (vids are
// minted on the OBJECT's current shard, wherever it moved), so the
// vid→oid index entry routes by vid value (Tx.putVidIdx), not by tx.s.
func (tx *shardTx) newVID() oid.VID {
	return oid.VID(storage.Compose(tx.allocID(ctrVID), tx.s))
}

// newStamp allocates a creation stamp. With one shard the shard counter
// is the clock (bit-for-bit the pre-shard behavior, including counter
// rollback on abort); with N shards the engine's global clock supplies
// the value and the shard counter keeps the high-water mark for reopen.
func (tx *shardTx) newStamp() oid.Stamp {
	if tx.e.single {
		return oid.Stamp(tx.st.NextCounter(ctrStamp))
	}
	s := tx.e.stamp.Add(1)
	if tx.st.Counter(ctrStamp) < s {
		tx.st.SetCounter(ctrStamp, s)
	}
	return oid.Stamp(s)
}

// saveRoots persists any root page movements after a mutating operation.
func (tx *shardTx) saveRoots() {
	set := func(slot int, t *btree.Tree) {
		if tx.st.Root(slot) != t.Root() {
			tx.st.SetRoot(slot, t.Root())
		}
	}
	set(rootObjTable, &tx.objTable)
	set(rootVerIdx, &tx.verIdx)
	set(rootTempIdx, &tx.tempIdx)
	set(rootCatalog, &tx.catalog)
	set(rootExtent, &tx.extent)
	set(rootConfig, &tx.config)
	set(rootVidIdx, &tx.vidIdx)
}

// Bus exposes the trigger bus.
func (e *Engine) Bus() *trigger.Bus { return e.bus }

// Manager exposes shard 0's transaction manager (the only shard when
// N = 1). Tools that need the whole shard set use Coordinator.
func (e *Engine) Manager() *txn.Manager { return e.c.Shards()[0] }

// Coordinator exposes the transaction coordinator.
func (e *Engine) Coordinator() *txn.Coordinator { return e.c }

// Policy returns the configured payload policy.
func (e *Engine) Policy() PayloadPolicy { return e.opts.Policy }

// DeltaTier reports whether the delta storage tier is enabled.
func (e *Engine) DeltaTier() bool { return e.opts.DeltaTier }

// AnchorInterval returns the effective delta-tier anchor interval.
func (e *Engine) AnchorInterval() int { return e.opts.AnchorInterval }

// MatCacheStats snapshots the materialisation cache counters; ok is
// false when the cache is disabled.
func (e *Engine) MatCacheStats() (matcache.Stats, bool) {
	if e.cache == nil {
		return matcache.Stats{}, false
	}
	return e.cache.Stats(), true
}

// ResetMatCache drops every materialisation cache entry (benchmarks use
// this to measure cold chain walks).
func (e *Engine) ResetMatCache() {
	if e.cache != nil {
		e.cache.Reset()
	}
}

// DerefCacheStats snapshots the dereference cache counters; ok is false
// when the cache is disabled.
func (e *Engine) DerefCacheStats() (derefcache.Stats, bool) {
	if e.dcache == nil {
		return derefcache.Stats{}, false
	}
	return e.dcache.Stats(), true
}

// DerefCacheShardStats reads one shard's dereference cache hit/miss
// counters (zeros when the cache is disabled).
func (e *Engine) DerefCacheShardStats(s int) (hits, misses uint64) {
	if e.dcache == nil {
		return 0, 0
	}
	return e.dcache.ShardStats(s)
}

// ResetDerefCache drops every dereference cache entry (benchmarks use
// this to measure cold reads).
func (e *Engine) ResetDerefCache() {
	if e.dcache != nil {
		e.dcache.Reset()
	}
}

// Write runs fn as a write transaction. The Tx is valid only until fn
// returns; on error or panic every effect is rolled back.
func (e *Engine) Write(fn func(tx *Tx) error) error {
	err := e.c.Write(func(w *txn.WriteTx) error {
		if w.Restarted() {
			// The first attempt was rolled back under the heap caches.
			e.resetHeapSpaces()
		}
		tx := &Tx{
			e:         e,
			w:         w,
			writable:  true,
			n:         w.NumShards(),
			rmap:      w.Map(),
			shards:    make([]*shardTx, w.NumShards()),
			lastAlloc: -1,
		}
		if !e.single && e.idxExist.Load() {
			if _, err := tx.shardW(0); err != nil {
				return err
			}
		}
		return fn(tx)
	})
	if err != nil {
		e.resetHeapSpaces()
	}
	return err
}

// Read runs fn against a snapshot of the most recently committed state;
// it neither blocks nor is blocked by concurrent writers.
func (e *Engine) Read(fn func(tx *Tx) error) error {
	return e.c.Read(func(r *txn.ReadTx) error {
		return fn(&Tx{
			e:         e,
			r:         r,
			n:         r.N(),
			rmap:      r.Map(),
			shards:    make([]*shardTx, r.N()),
			lastAlloc: -1,
		})
	})
}

// --- keys ---

func objKey(o oid.OID) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(o))
	return b[:]
}

func verKey(o oid.OID, v oid.VID) []byte {
	var b [16]byte
	binary.BigEndian.PutUint64(b[0:8], uint64(o))
	binary.BigEndian.PutUint64(b[8:16], uint64(v))
	return b[:]
}

func tempKey(o oid.OID, s oid.Stamp) []byte {
	var b [16]byte
	binary.BigEndian.PutUint64(b[0:8], uint64(o))
	binary.BigEndian.PutUint64(b[8:16], uint64(s))
	return b[:]
}

func vidKey(v oid.VID) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	return b[:]
}

func extKey(t oid.TypeID, o oid.OID) []byte {
	var b [12]byte
	binary.BigEndian.PutUint32(b[0:4], uint32(t))
	binary.BigEndian.PutUint64(b[4:12], uint64(o))
	return b[:]
}

// --- object header ---

// objHeader is the per-object record in the object table. The paper's §3
// point is embodied here: there is no "generic object header" users
// dereference through — the header exists only so the engine can find
// the latest version; an oid dereference is a single extra index probe,
// identical in cost for versioned and unversioned objects.
type objHeader struct {
	typ      oid.TypeID
	latest   oid.VID
	count    uint64 // live version count
	firstVID oid.VID
	created  oid.Stamp
}

func (h *objHeader) encode() []byte {
	b := make([]byte, 0, 40)
	b = codec.AppendU32(b, uint32(h.typ))
	b = codec.AppendUVarint(b, uint64(h.latest))
	b = codec.AppendUVarint(b, h.count)
	b = codec.AppendUVarint(b, uint64(h.firstVID))
	b = codec.AppendUVarint(b, uint64(h.created))
	return b
}

func decodeObjHeader(b []byte) (objHeader, error) {
	r := codec.NewReader(b)
	h := objHeader{}
	h.typ = oid.TypeID(r.U32())
	h.latest = oid.VID(r.UVarint())
	h.count = r.UVarint()
	h.firstVID = oid.VID(r.UVarint())
	h.created = oid.Stamp(r.UVarint())
	if r.Err() != nil {
		return objHeader{}, fmt.Errorf("%w: object header: %v", ErrCorrupt, r.Err())
	}
	return h, nil
}

func (tx *shardTx) loadHeader(o oid.OID) (objHeader, error) {
	raw, ok, err := tx.objTable.Get(objKey(o))
	if err != nil {
		return objHeader{}, err
	}
	if !ok {
		return objHeader{}, fmt.Errorf("%w: %v", ErrNoObject, o)
	}
	return decodeObjHeader(raw)
}

func (tx *shardTx) storeHeader(o oid.OID, h objHeader) error {
	return tx.objTable.Put(objKey(o), h.encode())
}

// Exists reports whether an object is present.
func (tx *shardTx) Exists(o oid.OID) (bool, error) {
	_, ok, err := tx.objTable.Get(objKey(o))
	return ok, err
}

// TypeOf returns the catalog type of an object.
func (tx *shardTx) TypeOf(o oid.OID) (oid.TypeID, error) {
	h, err := tx.loadHeader(o)
	if err != nil {
		return oid.NilType, err
	}
	return h.typ, nil
}

// Latest returns the vid the object id currently binds to — the paper's
// generic-reference resolution ("an object id ... logically refers to
// the latest version of the object").
func (tx *shardTx) Latest(o oid.OID) (oid.VID, error) {
	h, err := tx.loadHeader(o)
	if err != nil {
		return oid.NilVID, err
	}
	return h.latest, nil
}

// VersionCount returns the number of live versions of the object.
func (tx *shardTx) VersionCount(o oid.OID) (uint64, error) {
	h, err := tx.loadHeader(o)
	if err != nil {
		return 0, err
	}
	return h.count, nil
}

// Owner resolves a vid to its object (reverse index).
func (tx *shardTx) Owner(v oid.VID) (oid.OID, error) {
	raw, ok, err := tx.vidIdx.Get(vidKey(v))
	if err != nil {
		return oid.NilOID, err
	}
	if !ok {
		return oid.NilOID, fmt.Errorf("%w: %v", ErrNoVersion, v)
	}
	return oid.OID(binary.BigEndian.Uint64(raw)), nil
}

// Stats reports engine-level totals.
type Stats struct {
	Objects  uint64
	Versions uint64
	NextOID  uint64
	NextVID  uint64
	Stamp    uint64
}

// Stats returns this shard's contribution to the engine totals.
func (tx *shardTx) Stats() Stats {
	return Stats{
		Objects:  tx.st.Counter(ctrObjects),
		Versions: tx.st.Counter(ctrVersion),
		NextOID:  tx.st.Counter(ctrOID),
		NextVID:  tx.st.Counter(ctrVID),
		Stamp:    tx.st.Counter(ctrStamp),
	}
}

// Stats returns engine totals as of the most recent commit.
func (e *Engine) Stats() Stats {
	var s Stats
	_ = e.Read(func(tx *Tx) error {
		s = tx.Stats()
		return nil
	})
	return s
}

// ShardStats returns each physical shard's contribution to the engine
// totals, indexed by shard. A merged-away or not-yet-provisioned shard
// reports zeros.
func (e *Engine) ShardStats() []Stats {
	var out []Stats
	_ = e.Read(func(tx *Tx) error {
		out = make([]Stats, tx.n)
		for s := 0; s < tx.n; s++ {
			b, err := tx.shardR(s)
			if err != nil {
				return err
			}
			out[s] = b.Stats()
		}
		return nil
	})
	return out
}
