// Group commit: the commit path is split into prepare (run fn, stage
// WAL frames, advance the prepared epoch — all under the writer mutex)
// and publish (append + fsync, done by a single committer goroutine for
// a whole batch of prepared transactions at once). Writers therefore
// hold the writer mutex only for their in-memory work; the fsync — the
// expensive, latency-dominating step — is shared by everyone in the
// batch, so N concurrent committers cost one fsync instead of N.
//
// Protocol (DESIGN.md §10):
//
//   - prepare (Manager.prepare, writer mutex held): run fn, stage the
//     transaction's Begin/PageImage/Commit records into a wal.Frames,
//     advance the pool's prepared epoch, enqueue a commitReq. Queue
//     order is prepare order because enqueue happens under the mutex.
//   - publish (groupCommitter.run, its own goroutine): pop everything
//     queued (at most DefaultCommitBatchSize), splice the members'
//     frames into the log, one fsync, advance the durable epoch to the
//     newest member's, then ack every member. "Leader election" is
//     degenerate by construction: the committer goroutine is the
//     standing leader, and members only ever wait on their own done
//     channel.
//   - failure (Manager.failSuffix): if the batch's append or fsync
//     fails, every prepared-but-not-durable transaction — the failed
//     batch and anything queued behind it — is rolled back newest-first
//     (their before-images only compose in that order), the WAL is
//     truncated back to the batch start so the failed commits can never
//     be replayed, and each member gets its own error. The manager is
//     NOT poisoned: durable state is intact and the next commit must
//     succeed (see TestFailedCommitSyncNeverResurfaces). Only a failure
//     to heal the WAL itself poisons. A 2PC prepare queued behind the
//     failed batch is failed before the rollback starts: its owner holds
//     the writer mutex the rollback needs (TestPrepareBehindFailingBatch).
//
// Batching needs no timer: while a flush is in flight, new requests
// pile up in the queue and the next pop takes them all.
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
// group-commit fsync may cover.
const DefaultCommitBatchSize = 64

// commitReq is one prepared transaction awaiting its group fsync.
type commitReq struct {
	txid  oid.TxID
	tr    *tracker    // for rollback if the batch fails
	fr    *wal.Frames // staged Begin/PageImage/Commit run
	epoch uint64      // prepared epoch assigned at the commit point
	done  chan error  // buffered(1); nil = durable
	// prepare marks a 2PC participant: its frames end in a prepare
	// record, not a commit. The coordinator holds the shard's writer
	// mutex from enqueue until after the ack, so a prepare request is
	// always the LAST entry of the queue and of its batch: nothing can
	// be enqueued behind it. It is not a commit — the batch's counters,
	// durable epoch and BatchSize skip it — and when a batch fails it is
	// acked with an error (whether it was in the batch or queued behind
	// it) before failSuffix takes the writer mutex, because its owner
	// holds that mutex and rolls the transaction back itself.
	prepare bool
}

// groupCommitter owns the commit queue and the goroutine that publishes
// batches. Writers enqueue while holding the Manager's writer mutex;
// the queue is unbounded (a slice) so enqueue never blocks — essential,
// because the committer itself takes the writer mutex on the failure
// path and a bounded queue could deadlock against it.
type groupCommitter struct {
	m *Manager

	qmu     sync.Mutex
	more    *sync.Cond // signalled on enqueue and stop
	idle    *sync.Cond // signalled when the pipeline may have drained
	q       []*commitReq
	busy    bool // a batch is being flushed right now
	stopped bool
	// failing is the cause of a failed batch from failBegin until
	// failSuffix drains the queue; a prepare enqueued meanwhile is
	// acked with it at once instead of waiting behind the rollback.
	failing error
	exited  chan struct{}
}

func newGroupCommitter(m *Manager) *groupCommitter {
	gc := &groupCommitter{m: m, exited: make(chan struct{})}
	gc.more = sync.NewCond(&gc.qmu)
	gc.idle = sync.NewCond(&gc.qmu)
	go gc.run()
	return gc
}

// enqueue hands a prepared transaction to the committer. Callers hold
// the writer mutex, which is what makes queue order prepare order.
func (gc *groupCommitter) enqueue(req *commitReq) {
	gc.qmu.Lock()
	if gc.stopped {
		// Unreachable by Close's ordering (writers are barred before the
		// committer stops), but an unacked request would hang its writer
		// forever, so fail it rather than trust that reasoning with a
		// goroutine's life.
		gc.qmu.Unlock()
		req.done <- ErrClosed
		return
	}
	if req.prepare && gc.failing != nil {
		cause := gc.failing
		gc.qmu.Unlock()
		req.done <- groupAborted(cause)
		return
	}
	gc.q = append(gc.q, req)
	gc.more.Signal()
	gc.qmu.Unlock()
}

// next blocks until there is work, then claims up to maxBatch requests.
// It returns nil only when stopped with an empty queue. busy is raised
// before the queue lock is released so pipelineIdle stays accurate.
func (gc *groupCommitter) next() []*commitReq {
	gc.qmu.Lock()
	defer gc.qmu.Unlock()
	for len(gc.q) == 0 {
		if gc.stopped {
			return nil
		}
		gc.more.Wait()
	}
	n := min(len(gc.q), DefaultCommitBatchSize)
	batch := gc.q[:n:n]
	rest := make([]*commitReq, len(gc.q)-n)
	copy(rest, gc.q[n:])
	gc.q = rest
	gc.busy = true
	return batch
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
	var prep *commitReq
	if n := len(gc.q); n > 0 && gc.q[n-1].prepare {
		prep, gc.q = gc.q[n-1], gc.q[:n-1]
	}
	gc.qmu.Unlock()
	if prep != nil {
		prep.done <- groupAborted(cause)
	}
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

// batchDone lowers busy and wakes pipeline-idle waiters.
func (gc *groupCommitter) batchDone() {
	gc.qmu.Lock()
	gc.busy = false
	gc.idle.Broadcast()
	gc.qmu.Unlock()
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
// the writer mutex (the committer needs it to fail a batch).
func (gc *groupCommitter) waitIdle() {
	gc.qmu.Lock()
	for len(gc.q) > 0 || gc.busy {
		gc.idle.Wait()
	}
	gc.qmu.Unlock()
}

// stop makes the committer exit once the queue is drained; wait blocks
// until it has.
func (gc *groupCommitter) stop() {
	gc.qmu.Lock()
	gc.stopped = true
	gc.more.Broadcast()
	gc.qmu.Unlock()
}

func (gc *groupCommitter) wait() { <-gc.exited }

func (gc *groupCommitter) run() {
	defer close(gc.exited)
	for {
		batch := gc.next()
		if batch == nil {
			return
		}
		gc.m.publishBatch(batch)
		gc.batchDone()
	}
}

// publishBatch makes a batch durable: splice every member's staged
// frames into the log, one fsync for the group, advance the durable
// epoch, ack the members. Log access is under logMu (checkpoints and
// Close also touch the log); the writer mutex is NOT held, which is the
// entire point — writers prepare the next batch meanwhile.
func (m *Manager) publishBatch(batch []*commitReq) {
	var flushStart time.Time
	if m.timed() {
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
	if err == nil {
		err = m.log.Sync()
	}
	if err != nil {
		m.logMu.Unlock()
		if m.sink != nil {
			m.sink.Emit(obs.SpanEvent{Kind: obs.SpanFsync, Batch: len(batch), Dur: time.Since(flushStart), Err: err.Error()})
		}
		// Ack the prepare request BEFORE failSuffix takes the writer
		// mutex: its owner — the coordinator — holds that mutex while
		// waiting for this ack and rolls the 2PC transaction back itself
		// (newest-first order is preserved: that rollback happens before
		// the mutex is released, so before failSuffix can run). failBegin
		// does the same for a prepare queued behind the batch.
		if prep != nil {
			prep.done <- err
		}
		m.gc.failBegin(err)
		m.failSuffix(normals, startLSN, err)
		return
	}
	size := m.log.Size()
	m.walBytes.Store(size)
	m.logMu.Unlock()

	if m.m != nil && len(normals) > 0 {
		m.m.BatchSize.Observe(uint64(len(normals)))
	}
	if m.sink != nil && len(normals) > 0 {
		m.sink.Emit(obs.SpanEvent{Kind: obs.SpanFsync, Batch: len(normals), Dur: time.Since(flushStart)})
	}
	// Durable. Advance the readers' epoch to the newest committed member
	// before acking anyone: a writer whose Write returned nil is
	// entitled to have the next reader see its transaction. A prepare is
	// durable but not committed — its epoch only becomes visible when
	// the coordinator decides.
	if len(normals) > 0 {
		m.st.Pool().AdvanceDurableTo(normals[len(normals)-1].epoch)
		m.addCommitsBatches(uint64(len(normals)), 1)
	}
	for _, r := range batch {
		r.done <- nil
	}
	m.maybeKickCheckpoint(size)
}

// failSuffix handles a failed batch append/fsync: every prepared-but-
// not-durable transaction — the batch plus anything queued behind it
// (prepared on top of the batch's in-memory effects) — is rolled back
// newest-first, the WAL is healed back to the batch start, and each
// member is acked with an error. Batch members get the cause; queued
// members get a wrapper naming why an fsync they were not part of took
// them down. The prepared epochs burned here are simply never made
// durable, so no reader ever pins them.
func (m *Manager) failSuffix(batch []*commitReq, startLSN oid.LSN, cause error) {
	m.mu.Lock()
	suffix := append(batch, m.gc.drainQueued()...)
	for i := len(suffix) - 1; i >= 0; i-- {
		m.rollback(suffix[i].tr)
		if m.sink != nil {
			m.sink.Emit(obs.SpanEvent{Kind: obs.SpanAbort, Tx: uint64(suffix[i].txid), Err: cause.Error()})
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
	m.mu.Unlock()
	for i, r := range suffix {
		if i < len(batch) {
			r.done <- cause
		} else {
			r.done <- groupAborted(cause)
		}
	}
}

// maybeKickCheckpoint nudges the background checkpointer when the WAL
// has outgrown the configured threshold. Non-blocking: if a kick is
// already pending the checkpointer will see the current size anyway.
func (m *Manager) maybeKickCheckpoint(walSize int64) {
	limit := m.opts.CheckpointBytes
	if limit == 0 {
		limit = DefaultCheckpointBytes
	}
	if limit < 0 || walSize < limit {
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
			if err := m.Checkpoint(); err != nil {
				return // poisoned or closed; either way no more checkpoints
			}
		}
	}
}
