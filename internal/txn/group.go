// Group commit: the commit path is split into prepare (run fn, stage
// WAL frames, advance the prepared epoch — all under the writer mutex)
// and publish (append + fsync for a whole batch of prepared
// transactions at once). Writers therefore hold the writer mutex only
// for their in-memory work; the fsync — the expensive, latency-
// dominating step — is shared by everyone in the batch, so N concurrent
// committers cost one fsync instead of N. Every commit takes this path:
// local Writes, the coordinator's single-shard commits and its 2PC
// prepares, with or without NoSync (which only skips the fsync).
//
// Protocol (DESIGN.md §10):
//
//   - prepare (writer mutex held): run fn, stage the transaction's
//     Begin/PageImage/Commit (or Prepare) records into a pooled
//     wal.Frames, advance the pool's prepared epoch, enqueue a
//     commitReq. Queue order is prepare order because enqueue happens
//     under the mutex.
//   - publish (groupCommitter.commit): there is no committer goroutine.
//     A writer that finds no flush in flight leads the next batch
//     itself: it claims up to DefaultCommitBatchSize queued requests,
//     splices their frames into the log, issues one fsync, advances the
//     durable epoch to the newest member's, then acks every member.
//     Writers that find a flush in flight wait on a condition variable
//     and lead the next batch if that flush ended without their ack.
//     A 2PC prepare owner holds the writer mutex, so nothing can queue
//     behind it: when it leads, it claims the whole queue.
//   - failure (Manager.failSuffix): if the batch's append or fsync
//     fails, every prepared-but-not-durable transaction — the failed
//     batch and anything queued behind it — is rolled back newest-first
//     (their before-images only compose in that order), the WAL is
//     truncated back to the batch start so the failed commits can never
//     be replayed, and each member gets its own error. The manager is
//     NOT poisoned: durable state is intact and the next commit must
//     succeed (see TestFailedCommitSyncNeverResurfaces). Only a failure
//     to heal the WAL itself poisons. A leader without the writer mutex
//     first fails any 2PC prepare in or queued behind its batch — the
//     prepare's owner holds the mutex the rollback needs and rolls its
//     transaction back itself (TestPrepareBehindFailingBatch). A
//     prepare owner leading a failing batch already holds the mutex and
//     rolls back the whole batch, its own prepare first
//     (TestPrepareLeadsFailingBatch).
//
// Batching needs no timer: while a flush is in flight, new requests
// pile up in the queue and the next leader takes them all.
package txn

import (
	"fmt"
	"sync"
	"time"

	"ode/internal/obs"
	"ode/internal/oid"
	"ode/internal/wal"
)

// DefaultCommitBatchSize bounds how many prepared transactions one
// group-commit fsync led by a local writer may cover.
const DefaultCommitBatchSize = 64

// commitReq is one prepared transaction awaiting its group fsync.
type commitReq struct {
	txid  oid.TxID
	tr    *tracker    // for rollback if the batch fails
	fr    *wal.Frames // staged Begin/PageImage/Commit run
	epoch uint64      // prepared epoch assigned at the commit point
	// prepare marks a 2PC participant: its frames end in a prepare
	// record, not a commit. The coordinator holds the shard's writer
	// mutex from enqueue until after the ack, so a prepare request is
	// always the LAST entry of the queue and of its batch: nothing can
	// be enqueued behind it. It is not a commit — the batch's counters,
	// durable epoch and BatchSize skip it.
	prepare bool

	// err and acked are the outcome, written under groupCommitter.qmu.
	// Once acked is set nothing writes the request again.
	err   error
	acked bool
}

// groupCommitter owns a manager's commit queue. Writers enqueue while
// holding the writer mutex; the queue is unbounded (a slice) so enqueue
// never blocks — essential, because a failing leader takes the writer
// mutex and a bounded queue could deadlock against it.
type groupCommitter struct {
	m *Manager

	qmu  sync.Mutex
	cond *sync.Cond // broadcast on every ack and when a flush ends
	q    []*commitReq
	busy bool // a leader is flushing a batch right now
	// failing is the cause of a failed batch from failBegin until
	// failSuffix drains the queue; a prepare enqueued meanwhile is
	// acked with it at once instead of waiting behind the rollback.
	failing error
}

func newGroupCommitter(m *Manager) *groupCommitter {
	gc := &groupCommitter{m: m}
	gc.cond = sync.NewCond(&gc.qmu)
	return gc
}

// enqueue queues a prepared transaction. Callers hold the writer mutex,
// which is what makes queue order prepare order, and then call commit.
func (gc *groupCommitter) enqueue(req *commitReq) {
	gc.qmu.Lock()
	if req.prepare && gc.failing != nil {
		req.err, req.acked = groupAborted(gc.failing), true
	} else {
		gc.q = append(gc.q, req)
	}
	gc.qmu.Unlock()
}

// commit returns req's outcome once it is acked, leading a flush
// whenever none is in flight. An unacked request is always queued (a
// failed flush acks everything it drains), so a leader's claim is never
// empty. holdsMu marks a 2PC prepare owner, which holds the writer
// mutex: its request is the queue's last entry, so it claims the whole
// queue, and it must handle a failed flush without re-taking the mutex.
func (gc *groupCommitter) commit(req *commitReq, holdsMu bool) error {
	gc.qmu.Lock()
	for !req.acked {
		if gc.busy {
			gc.cond.Wait()
			continue
		}
		n := len(gc.q)
		if !holdsMu {
			n = min(n, DefaultCommitBatchSize)
		}
		batch := gc.q[:n:n]
		gc.q = gc.q[n:]
		gc.busy = true
		gc.qmu.Unlock()
		ok := gc.m.publishBatch(batch, holdsMu)
		gc.qmu.Lock()
		if ok {
			for _, r := range batch {
				r.acked = true
			}
		}
		// The queue's backing array outlives the batch; drop its hold on
		// the acked requests' trackers.
		clear(batch)
		gc.busy = false
		gc.cond.Broadcast()
	}
	gc.qmu.Unlock()
	return req.err
}

// ack delivers err to each request and wakes their owners.
func (gc *groupCommitter) ack(reqs []*commitReq, err error) {
	gc.qmu.Lock()
	for _, r := range reqs {
		r.err, r.acked = err, true
	}
	gc.cond.Broadcast()
	gc.qmu.Unlock()
}

// failBegin marks a batch failure before failSuffix waits for the
// writer mutex. A 2PC prepare's owner holds that mutex until its prepare
// is acked, so a prepare queued behind the failed batch (necessarily
// the queue's last entry) is popped and acked with the cause now, as is
// any prepare enqueued until failSuffix drains the queue. Each owner
// then rolls its transaction back and releases the mutex before the
// batch's rollback runs, which keeps rollback order newest-first.
func (gc *groupCommitter) failBegin(cause error) {
	gc.qmu.Lock()
	gc.failing = cause
	if n := len(gc.q); n > 0 && gc.q[n-1].prepare {
		prep := gc.q[n-1]
		gc.q = gc.q[:n-1]
		prep.err, prep.acked = groupAborted(cause), true
		gc.cond.Broadcast()
	}
	gc.qmu.Unlock()
}

// drainQueued empties the queue and ends the failure window (called by
// failSuffix under the writer mutex, so nothing can enqueue until the
// rollback is done: everything still queued was prepared on top of the
// failed batch and must be rolled back with it).
func (gc *groupCommitter) drainQueued() []*commitReq {
	gc.qmu.Lock()
	defer gc.qmu.Unlock()
	q := gc.q
	gc.q = nil
	gc.failing = nil
	return q
}

// groupAborted is the error of a transaction rolled back because an
// fsync it was not part of failed.
func groupAborted(cause error) error {
	return fmt.Errorf("aborted with failed commit group: %w", cause)
}

// pipelineIdle reports whether no commit is queued or in flight. Only
// meaningful while the caller holds the writer mutex (which is what
// stops new requests from arriving).
func (gc *groupCommitter) pipelineIdle() bool {
	gc.qmu.Lock()
	defer gc.qmu.Unlock()
	return len(gc.q) == 0 && !gc.busy
}

// waitIdle blocks until the pipeline drains. The caller must NOT hold
// the writer mutex (a failing leader needs it to roll a batch back).
func (gc *groupCommitter) waitIdle() {
	gc.qmu.Lock()
	for len(gc.q) > 0 || gc.busy {
		gc.cond.Wait()
	}
	gc.qmu.Unlock()
}

// publishBatch makes a batch durable: splice every member's staged
// frames into the log, one fsync for the group (none under NoSync),
// advance the durable epoch. It reports whether the batch is durable;
// the leader then acks the members. On failure every member has already
// been acked with an error. Log access is under logMu (checkpoints and
// 2PC decides also touch the log); the writer mutex is NOT needed,
// which is the entire point — writers prepare the next batch meanwhile.
// holdsMu says the leader is a 2PC prepare owner holding it.
func (m *Manager) publishBatch(batch []*commitReq, holdsMu bool) bool {
	// flushStart only feeds span durations (the fsync histogram is the
	// WAL's own), so without a tracer the clock is not read.
	var flushStart time.Time
	if m.sink != nil {
		flushStart = time.Now()
	}
	// A 2PC prepare request can only be the last member (its owner holds
	// the writer mutex until it is acked, so nothing enqueues behind it).
	var prep *commitReq
	normals := batch
	if batch[len(batch)-1].prepare {
		prep = batch[len(batch)-1]
		normals = batch[:len(batch)-1]
	}
	m.logMu.Lock()
	startLSN := m.log.End()
	var err error
	for _, r := range batch {
		if _, err = m.log.AppendFrames(r.fr); err != nil {
			break
		}
	}
	if err == nil && !m.opts.NoSync {
		err = m.log.Sync()
	}
	if err != nil {
		m.logMu.Unlock()
		if m.sink != nil {
			m.sink.Emit(obs.SpanEvent{Kind: obs.SpanFsync, Batch: len(batch), Dur: time.Since(flushStart), Err: err.Error()})
		}
		if holdsMu {
			// The leader owns the batch's prepare and the writer mutex;
			// nothing is queued behind it. It rolls the batch back itself.
			m.failSuffix(batch, startLSN, err, true)
			return false
		}
		// Fail the prepare request BEFORE failSuffix takes the writer
		// mutex: its owner — the coordinator — holds that mutex while
		// waiting for this ack and rolls the 2PC transaction back itself
		// (newest-first order is preserved: that rollback happens before
		// the mutex is released, so before failSuffix can run). failBegin
		// does the same for a prepare queued behind the batch.
		if prep != nil {
			m.gc.ack([]*commitReq{prep}, err)
		}
		m.gc.failBegin(err)
		m.failSuffix(normals, startLSN, err, false)
		return false
	}
	size := m.log.Size()
	m.walBytes.Store(size)
	m.logMu.Unlock()

	if len(normals) > 0 {
		if m.m != nil {
			m.m.BatchSize.Observe(uint64(len(normals)))
		}
		if m.sink != nil {
			m.sink.Emit(obs.SpanEvent{Kind: obs.SpanFsync, Batch: len(normals), Dur: time.Since(flushStart)})
		}
		// Durable. Advance the readers' epoch to the newest committed
		// member before anyone is acked: a writer whose Write returned nil
		// is entitled to have the next reader see its transaction. A
		// prepare is durable but not committed — its epoch only becomes
		// visible when the coordinator decides.
		m.st.Pool().AdvanceDurableTo(normals[len(normals)-1].epoch)
		m.addCommitsBatches(uint64(len(normals)), 1)
	}
	m.maybeKickCheckpoint(size)
	return true
}

// failSuffix handles a failed batch append/fsync: every prepared-but-
// not-durable transaction — the batch plus anything queued behind it
// (prepared on top of the batch's in-memory effects) — is rolled back
// newest-first, the WAL is healed back to the batch start, and each
// member is acked with an error. Batch members get the cause; queued
// members get a wrapper naming why an fsync they were not part of took
// them down. The prepared epochs burned here are simply never made
// durable, so no reader ever pins them.
//
// holdsMu says the leader is a 2PC prepare owner that already holds the
// writer mutex; its prepare, the batch's last member, is rolled back
// first and quietly (the coordinator counts the abort), and its tracker
// is emptied so the coordinator's own rollback finds nothing to undo.
func (m *Manager) failSuffix(batch []*commitReq, startLSN oid.LSN, cause error, holdsMu bool) {
	if !holdsMu {
		m.mu.Lock()
		defer m.mu.Unlock()
	}
	queued := m.gc.drainQueued()
	for _, reqs := range [2][]*commitReq{queued, batch} {
		for i := len(reqs) - 1; i >= 0; i-- {
			r := reqs[i]
			if r.prepare {
				m.rollbackQuiet(r.tr)
				r.tr.reset()
				continue
			}
			m.rollback(r.tr)
			if m.sink != nil {
				m.sink.Emit(obs.SpanEvent{Kind: obs.SpanAbort, Tx: uint64(r.txid), Err: cause.Error()})
			}
		}
	}
	m.logMu.Lock()
	if err := m.log.TruncateTo(startLSN); err != nil {
		// The failed commits might survive in the log and be replayed
		// after a crash even though we are about to report them failed.
		// That is the one thing recovery cannot fix: stop writing.
		m.poison(fmt.Errorf("cannot erase failed commit group from WAL: %w", err))
	}
	m.walBytes.Store(m.log.Size())
	m.logMu.Unlock()
	m.gc.ack(batch, cause)
	if len(queued) > 0 {
		m.gc.ack(queued, groupAborted(cause))
	}
}

// checkpointDue reports whether a WAL of walSize bytes has outgrown the
// configured checkpoint threshold.
func (m *Manager) checkpointDue(walSize int64) bool {
	limit := m.opts.CheckpointBytes
	if limit == 0 {
		limit = DefaultCheckpointBytes
	}
	return limit >= 0 && walSize >= limit
}

// maybeKickCheckpoint nudges the background checkpointer when the WAL
// has outgrown the configured threshold. Non-blocking: if a kick is
// already pending the checkpointer will see the current size anyway.
func (m *Manager) maybeKickCheckpoint(walSize int64) {
	if !m.checkpointDue(walSize) {
		return
	}
	select {
	case m.ckptKick <- struct{}{}:
	default:
	}
}

// checkpointer is the background goroutine that runs checkpoints off
// the commit path. Errors are already recorded by Checkpoint (poisoned
// manager); ErrClosed just means shutdown won the race.
func (m *Manager) checkpointer() {
	defer m.ckptWG.Done()
	for {
		select {
		case <-m.ckptStop:
			return
		case <-m.ckptKick:
			// Flushes that crossed the threshold while the previous
			// checkpoint ran leave a kick behind; that checkpoint has
			// already reset the WAL.
			if !m.checkpointDue(m.walBytes.Load()) {
				continue
			}
			if err := m.Checkpoint(); err != nil {
				return // poisoned or closed; either way no more checkpoints
			}
		}
	}
}
