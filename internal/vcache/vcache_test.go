package vcache

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ode/internal/oid"
)

// latest is the vid of a generic reference: whatever version is latest.
const latest = oid.NilVID

// refKind is one kind of reference: the generic reference (o, NilVID)
// of the dereference cache or the specific reference (o, v) of the
// materialisation cache.
type refKind func(i uint64) (oid.OID, oid.VID)

var (
	generic  refKind = func(i uint64) (oid.OID, oid.VID) { return oid.OID(i), latest }
	specific refKind = func(i uint64) (oid.OID, oid.VID) { return oid.OID(i), oid.VID(i + 1000) }
)

// --- generic references: oid → (latest vid, content) ---

func TestGetMissThenHit(t *testing.T) {
	c := New(1<<20, 4, 8)
	if _, _, ok := c.Get(7, latest, 0, 1); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(7, latest, 0, 1, 42, []byte("hello"))
	vid, content, ok := c.Get(7, latest, 0, 1)
	if !ok || vid != 42 || !bytes.Equal(content, []byte("hello")) {
		t.Fatalf("got (%d, %q, %v), want (42, hello, true)", vid, content, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 1 hit 1 miss 1 entry", st)
	}
	h, m := c.ShardStats(0)
	if h != 1 || m != 1 {
		t.Fatalf("shard stats (%d,%d), want (1,1)", h, m)
	}
}

func TestEpochTagMismatchNeverServes(t *testing.T) {
	c := New(1<<20, 1, 8)
	c.Put(7, latest, 0, 5, 42, []byte("v5"))

	// Newer reader epoch on the same shard: entry is provably stale,
	// must miss AND be dropped.
	if _, _, ok := c.Get(7, latest, 0, 6); ok {
		t.Fatal("served entry tagged with an older epoch")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stale entry not dropped: %+v", st)
	}

	// Older reader epoch: must miss but must NOT evict the fresh entry.
	c.Put(7, latest, 0, 5, 42, []byte("v5"))
	if _, _, ok := c.Get(7, latest, 0, 4); ok {
		t.Fatal("served entry tagged with a newer epoch")
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatal("older-epoch probe evicted a fresh entry")
	}

	// Different shard slot, same epoch value: must miss, must not evict.
	if _, _, ok := c.Get(7, latest, 1, 5); ok {
		t.Fatal("served entry tagged with a different shard")
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatal("cross-shard probe evicted an entry")
	}

	// Exact tag still hits.
	if _, _, ok := c.Get(7, latest, 0, 5); !ok {
		t.Fatal("exact (shard, epoch) probe missed")
	}
}

func TestPutReplacesEntry(t *testing.T) {
	c := New(1<<20, 1, 8)
	c.Put(7, latest, 0, 5, 42, []byte("old"))
	c.Put(7, latest, 0, 6, 43, []byte("newer"))
	vid, content, ok := c.Get(7, latest, 0, 6)
	if !ok || vid != 43 || string(content) != "newer" {
		t.Fatalf("got (%d, %q, %v) after replace", vid, content, ok)
	}
	st := c.Stats()
	if st.Entries != 1 {
		t.Fatalf("replace left %d entries", st.Entries)
	}
	want := int64(len("newer")) + entryOverhead
	if st.Bytes != want {
		t.Fatalf("bytes %d after replace, want %d", st.Bytes, want)
	}
}

func TestEvictionUnderPressure(t *testing.T) {
	// One bucket with room for ~4 entries of 100 bytes + overhead.
	per := int64(4 * (100 + entryOverhead))
	c := New(per, 1, 8)
	payload := make([]byte, 100)
	for i := 0; i < 32; i++ {
		c.Put(oid.OID(i), latest, 0, 1, oid.VID(i), payload)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions despite 8x overcommit")
	}
	if st.Bytes > per {
		t.Fatalf("bytes %d exceed budget %d", st.Bytes, per)
	}
	if st.Entries == 0 || st.Entries > 4 {
		t.Fatalf("entries %d after pressure, want 1..4", st.Entries)
	}
	// Most recent insert survives, oldest is gone.
	if _, _, ok := c.Get(31, latest, 0, 1); !ok {
		t.Fatal("most recent entry evicted")
	}
	if _, _, ok := c.Get(0, latest, 0, 1); ok {
		t.Fatal("oldest entry survived 8x overcommit")
	}
}

func TestLRUTouchOrder(t *testing.T) {
	per := int64(2 * (10 + entryOverhead))
	c := New(per, 1, 8)
	c.Put(1, latest, 0, 1, 1, make([]byte, 10))
	c.Put(2, latest, 0, 1, 2, make([]byte, 10))
	// Touch 1 so 2 becomes the LRU victim.
	if _, _, ok := c.Get(1, latest, 0, 1); !ok {
		t.Fatal("expected hit on 1")
	}
	c.Put(3, latest, 0, 1, 3, make([]byte, 10))
	if _, _, ok := c.Get(1, latest, 0, 1); !ok {
		t.Fatal("recently touched entry was evicted")
	}
	if _, _, ok := c.Get(2, latest, 0, 1); ok {
		t.Fatal("LRU entry survived eviction")
	}
}

func TestGetCopiesOut(t *testing.T) {
	c := New(1<<20, 1, 8)
	c.Put(1, latest, 0, 1, 1, []byte("abc"))
	_, content, ok := c.Get(1, latest, 0, 1)
	if !ok {
		t.Fatal("miss")
	}
	content[0] = 'X'
	_, again, _ := c.Get(1, latest, 0, 1)
	if string(again) != "abc" {
		t.Fatal("caller mutation leaked into cache-owned bytes")
	}
}

// --- specific references: (oid, vid) → content ---

func TestGetPutRoundTrip(t *testing.T) {
	c := New(1<<20, 4, 0)
	c.Put(1, 2, 0, 7, 2, []byte("hello"))
	vid, got, ok := c.Get(1, 2, 0, 7)
	if !ok || vid != 2 || !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("get = %d, %q, %v; want 2, hello, true", vid, got, ok)
	}
	if _, _, ok := c.Get(1, 3, 0, 7); ok {
		t.Fatal("unexpected hit for absent version")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss, 1 entry", st)
	}
	// maxShards 0 tracks no per-shard series.
	if h, m := c.ShardStats(0); h != 0 || m != 0 {
		t.Fatalf("untracked shard stats = (%d,%d)", h, m)
	}
}

func TestEpochAndShardTagMismatch(t *testing.T) {
	c := New(1<<20, 1, 0)
	c.Put(9, 9, 1, 5, 9, []byte("v-at-epoch-5"))
	// Same shard, newer epoch: stale entry must not be served and must
	// be dropped.
	if _, _, ok := c.Get(9, 9, 1, 6); ok {
		t.Fatal("served entry from an older epoch")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("stale entry not dropped: %+v", st)
	}
	// Same epoch number, different shard slot (reshard coincidence).
	c.Put(9, 9, 1, 5, 9, []byte("v"))
	if _, _, ok := c.Get(9, 9, 2, 5); ok {
		t.Fatal("served entry tagged for another shard")
	}
}

func TestCopyOnGetAndPut(t *testing.T) {
	c := New(1<<20, 1, 0)
	src := []byte("immutable")
	c.Put(1, 1, 0, 1, 1, src)
	src[0] = 'X' // caller mutates its buffer after Put
	_, got, ok := c.Get(1, 1, 0, 1)
	if !ok || string(got) != "immutable" {
		t.Fatalf("cache aliased caller's Put buffer: %q", got)
	}
	got[0] = 'Y' // caller mutates the Get result
	_, again, _ := c.Get(1, 1, 0, 1)
	if string(again) != "immutable" {
		t.Fatalf("cache aliased Get result: %q", again)
	}
}

func TestOverwriteSameKey(t *testing.T) {
	c := New(1<<20, 1, 0)
	c.Put(1, 1, 0, 1, 1, []byte("old"))
	c.Put(1, 1, 0, 2, 1, []byte("newer-content"))
	if _, _, ok := c.Get(1, 1, 0, 1); ok {
		t.Fatal("old epoch still served after overwrite")
	}
	_, got, ok := c.Get(1, 1, 0, 2)
	if !ok || string(got) != "newer-content" {
		t.Fatalf("get = %q, %v", got, ok)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("overwrite duplicated entry: %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	// One bucket, room for roughly 4 entries of 100 bytes + overhead.
	c := New(4*(100+entryOverhead), 1, 0)
	pay := make([]byte, 100)
	for i := 0; i < 6; i++ {
		c.Put(oid.OID(i), oid.VID(i), 0, 1, oid.VID(i), pay)
	}
	// 0 and 1 are the least recently used and must be gone.
	if _, _, ok := c.Get(0, 0, 0, 1); ok {
		t.Fatal("LRU entry 0 survived eviction")
	}
	if _, _, ok := c.Get(1, 1, 0, 1); ok {
		t.Fatal("LRU entry 1 survived eviction")
	}
	for i := 2; i < 6; i++ {
		if _, _, ok := c.Get(oid.OID(i), oid.VID(i), 0, 1); !ok {
			t.Fatalf("recent entry %d evicted", i)
		}
	}
	st := c.Stats()
	if st.Evictions != 2 {
		t.Fatalf("evictions = %d; want 2", st.Evictions)
	}
	if st.Bytes > 4*(100+entryOverhead) {
		t.Fatalf("bytes %d exceeds budget", st.Bytes)
	}
}

func TestTouchKeepsHotEntry(t *testing.T) {
	c := New(3*(10+entryOverhead), 1, 0)
	pay := make([]byte, 10)
	c.Put(1, 1, 0, 1, 1, pay)
	c.Put(2, 2, 0, 1, 2, pay)
	c.Put(3, 3, 0, 1, 3, pay)
	c.Get(1, 1, 0, 1) // touch 1: now 2 is the LRU
	c.Put(4, 4, 0, 1, 4, pay)
	if _, _, ok := c.Get(2, 2, 0, 1); ok {
		t.Fatal("expected 2 to be evicted (1 was touched)")
	}
	if _, _, ok := c.Get(1, 1, 0, 1); !ok {
		t.Fatal("touched entry 1 was evicted")
	}
}

// --- checks run for each reference kind ---

func TestOversizedContentNotCached(t *testing.T) { checkOversize(t, generic) }

func TestOversizeAndZeroCapacity(t *testing.T) {
	checkOversize(t, specific)
	z := New(0, 4, 8)
	z.Put(1, 2, 0, 1, 2, []byte("x"))
	if _, _, ok := z.Get(1, 2, 0, 1); ok {
		t.Fatal("zero-capacity cache accepted an entry")
	}
	n := New(-5, 0, -1) // degenerate arguments must not panic
	n.Put(1, 2, 0, 1, 2, []byte("x"))
	n.Get(1, 2, 0, 1)
}

// checkOversize stores content larger than the whole budget and checks
// it is neither kept nor served.
func checkOversize(t *testing.T, ref refKind) {
	t.Helper()
	o, v := ref(1)
	c := New(256, 1, 8)
	c.Put(o, v, 0, 1, 1, make([]byte, 1024))
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversized content was cached: %+v", st)
	}
	if _, _, ok := c.Get(o, v, 0, 1); ok {
		t.Fatal("oversized content was served")
	}
}

func TestResetGeneric(t *testing.T) { checkReset(t, generic) }

func TestReset(t *testing.T) { checkReset(t, specific) }

func checkReset(t *testing.T, ref refKind) {
	t.Helper()
	c := New(1<<20, 8, 8)
	for i := uint64(0); i < 64; i++ {
		o, v := ref(i)
		c.Put(o, v, 0, 1, oid.VID(i), []byte("payload"))
	}
	c.Reset()
	st := c.Stats()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("reset left %d entries, %d bytes", st.Entries, st.Bytes)
	}
	o, v := ref(3)
	if _, _, ok := c.Get(o, v, 0, 1); ok {
		t.Fatal("entry survived Reset")
	}
}

// TestConcurrentAccess hammers the cache with generic references only.
func TestConcurrentAccess(t *testing.T) { hammer(t, generic) }

// TestConcurrent mixes both reference kinds in one instance.
func TestConcurrent(t *testing.T) { hammer(t, generic, specific) }

// hammer drives the cache from many goroutines under -race, with the
// given reference kinds on shard slots inside and outside the tracked
// range, and checks every hit returns the exact vid and bytes stored
// for that key and tag.
func hammer(t *testing.T, kinds ...refKind) {
	t.Helper()
	c := New(64<<10, 4, 2)
	content := func(o oid.OID, v oid.VID, shard int, epoch uint64) []byte {
		return []byte(fmt.Sprintf("content-%d-%d-%d-%d", o, v, shard, epoch))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				o, v := kinds[rng.Intn(len(kinds))](uint64(rng.Intn(16)))
				shard, epoch := rng.Intn(4), uint64(rng.Intn(4))
				vid := oid.VID(uint64(o)*10 + epoch)
				if rng.Intn(2) == 0 {
					c.Put(o, v, shard, epoch, vid, content(o, v, shard, epoch))
				} else if gotVid, got, ok := c.Get(o, v, shard, epoch); ok {
					if want := content(o, v, shard, epoch); gotVid != vid || !bytes.Equal(got, want) {
						panic(fmt.Sprintf("hit returned (%d, %q), want (%d, %q)", gotVid, got, vid, want))
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes < 0 || st.Bytes > 64<<10 {
		t.Fatalf("byte accounting out of range: %+v", st)
	}
	var tracked uint64
	for s := 0; s < 4; s++ {
		h, m := c.ShardStats(s)
		tracked += h + m
	}
	if tracked == 0 || tracked >= st.Hits+st.Misses {
		t.Fatalf("per-shard probes %d, want some but fewer than all %d", tracked, st.Hits+st.Misses)
	}
}

// TestGenericAndSpecificSideBySide keeps a generic reference and
// specific references of the same object in one instance: they are
// distinct entries, each hit returns its own resolution, and an epoch
// advance drops each one only when it is probed.
func TestGenericAndSpecificSideBySide(t *testing.T) {
	c := New(1<<20, 4, 8)
	c.Put(5, 10, 0, 1, 10, []byte("v10"))
	c.Put(5, 11, 0, 1, 11, []byte("v11"))
	c.Put(5, latest, 0, 1, 11, []byte("v11"))
	if st := c.Stats(); st.Entries != 3 {
		t.Fatalf("entries = %d, want 3", st.Entries)
	}
	for _, p := range []struct {
		v, want oid.VID
		content string
	}{{10, 10, "v10"}, {11, 11, "v11"}, {latest, 11, "v11"}} {
		vid, got, ok := c.Get(5, p.v, 0, 1)
		if !ok || vid != p.want || string(got) != p.content {
			t.Fatalf("Get(o5, %v) = (%v, %q, %v), want (%v, %q, true)", p.v, vid, got, ok, p.want, p.content)
		}
	}

	// A commit makes v12 latest: the reader at epoch 2 drops the stale
	// generic entry and caches the new latest; the specific entries
	// stay until probed themselves.
	if _, _, ok := c.Get(5, latest, 0, 2); ok {
		t.Fatal("stale latest served after the epoch advanced")
	}
	c.Put(5, latest, 0, 2, 12, []byte("v12"))
	if vid, got, ok := c.Get(5, latest, 0, 2); !ok || vid != 12 || string(got) != "v12" {
		t.Fatalf("new latest = (%v, %q, %v)", vid, got, ok)
	}
	if st := c.Stats(); st.Entries != 3 {
		t.Fatalf("entries = %d after the generic refresh, want 3", st.Entries)
	}
	if _, _, ok := c.Get(5, 10, 0, 2); ok {
		t.Fatal("specific entry from epoch 1 served at epoch 2")
	}
	if vid, _, ok := c.Get(5, 11, 0, 1); !ok || vid != 11 {
		t.Fatal("a reader still pinned at epoch 1 lost v11")
	}
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("entries = %d, want 2 (v11 and the new latest)", st.Entries)
	}
	c.Reset()
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("reset left %+v", st)
	}
}
