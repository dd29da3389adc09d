// Joined-transaction entry points: the per-shard half of the
// coordinator protocol (coord.go). A coordinated transaction "joins" a
// shard by taking its writer mutex and beginning a shard-local
// transaction on it; the coordinator then drives commit, prepare,
// decide or rollback through these methods while it holds that mutex.
// They are the same steps Manager.Write performs for a standalone
// manager, minus span emission and latency accounting — the coordinator
// accounts for the whole cross-shard transaction once at its level.
package txn

import (
	"fmt"

	"ode/internal/oid"
	"ode/internal/storage"
	"ode/internal/wal"
)

// lockWriter takes the shard's writer mutex and validates that the
// shard can accept a write. On error the mutex is NOT held.
func (m *Manager) lockWriter() error {
	m.mu.Lock()
	if m.isClosed() {
		m.mu.Unlock()
		return ErrClosed
	}
	if m.opts.Storage.ReadOnly {
		m.mu.Unlock()
		return ErrReadOnly
	}
	if m.ioErr != nil {
		err := fmt.Errorf("%w (cause: %v)", ErrPoisoned, m.ioErr)
		m.mu.Unlock()
		return err
	}
	return nil
}

// unlockWriter releases the shard's writer mutex.
func (m *Manager) unlockWriter() { m.mu.Unlock() }

// lockWriterDrained takes the shard's writer mutex with the commit
// pipeline idle: no batch queued or in flight. Holding the mutex keeps
// it that way (enqueueing requires the mutex). On error the mutex is
// NOT held. Unlike lockWriter it tolerates a poisoned shard: callers
// (checkpoint under Coordinator.CheckpointExclusive) surface the poison
// themselves and must not deadlock on it.
func (m *Manager) lockWriterDrained() error {
	for {
		m.mu.Lock()
		if m.isClosed() {
			m.mu.Unlock()
			return ErrClosed
		}
		if m.gc.pipelineIdle() {
			return nil
		}
		m.mu.Unlock()
		m.gc.waitIdle() // off-lock: a failing leader may need mu
	}
}

// beginJoined starts a shard-local transaction. Caller holds the writer
// mutex (lockWriter) and keeps it until release.
func (m *Manager) beginJoined() (oid.TxID, *storage.TxView, *tracker) {
	tr := newTracker()
	v := m.st.OpenWriter(tr)
	m.nextTx++
	return oid.TxID(m.nextTx), v, tr
}

// stage builds a transaction's WAL frames in a pooled buffer: Begin,
// the after-images of its touched pages, and either a commit record or
// — for a 2PC participant — a prepare record carrying gtid. Caller
// holds the writer mutex; the images are encoded once, directly into
// the frame buffer, while they are the transaction's final state, and
// the batch leader splices the frozen bytes later. Grow reserves the
// whole run up front (8-byte frame header plus ≤10 bytes of record
// prelude per page image, with slack for begin/commit/prepare) so
// staging never reallocates mid-loop.
func (m *Manager) stage(txid oid.TxID, touched []oid.PageID, gtid uint64, prepare bool) (*wal.Frames, error) {
	fr := framesPool.Get().(*wal.Frames)
	fr.Reset()
	fr.Grow(len(touched)*(m.st.PageSize()+18) + 64)
	fr.Begin(txid)
	for _, id := range touched {
		p, err := m.st.Get(id)
		if err != nil {
			framesPool.Put(fr)
			return nil, err
		}
		fr.PageImage(txid, id, p.Data)
	}
	if prepare {
		fr.Prepare(txid, gtid)
	} else {
		fr.Commit(txid)
	}
	return fr, nil
}

// enqueue advances the shard's prepared epoch — the in-memory commit
// point: pages mutated by later transactions will COW against
// snapshots tagged at the new epoch, while readers keep pinning the
// durable epoch until the batch's fsync lands — and queues the staged
// frames for a group flush. Caller holds the writer mutex and then
// calls gc.commit.
func (m *Manager) enqueue(txid oid.TxID, tr *tracker, fr *wal.Frames, prepare bool) *commitReq {
	req := &commitReq{txid: txid, tr: tr, fr: fr, epoch: m.st.Pool().AdvanceEpoch(), prepare: prepare}
	m.gc.enqueue(req)
	return req
}

// decideJoinedLog writes (and fsyncs) the shard-local commit record for
// a prepared 2PC participant. The coordinator's decision record is
// already durable, so a failure here does not un-commit anything: the
// shard is poisoned (recovery will finish the job from the prepare
// record plus the coordinator log) and the caller still publishes — the
// commit IS durable. Caller holds the writer mutex; the shard's
// pipeline is idle (the prepare ack was the last pipeline activity and
// the mutex blocks new entrants), so touching the log under logMu is
// safe. Visibility is the caller's job
// (publishJoined): the record-write with its fsync is kept out of the
// coordinator's publication lock so readers never wait on it.
func (m *Manager) decideJoinedLog(txid oid.TxID) error {
	m.logMu.Lock()
	var err error
	if _, err = m.log.AppendCommit(txid); err == nil && !m.opts.NoSync {
		err = m.log.Sync()
	}
	size := m.log.Size()
	m.walBytes.Store(size)
	m.logMu.Unlock()
	if err != nil {
		m.poison(fmt.Errorf("2pc decide (decision is durable in the coordinator log): %w", err))
		return err
	}
	// The kick is just a non-blocking channel send; the checkpointer
	// cannot run until the coordinator releases this shard's mutex, by
	// which point the epoch is published.
	m.maybeKickCheckpoint(size)
	return nil
}

// publishJoined makes a decided 2PC participant visible to this shard's
// readers. Split from decideJoinedLog so the coordinator can publish
// every dirty shard's epoch as one atomic step under its publication
// lock — a handful of atomic stores, no I/O.
func (m *Manager) publishJoined(epoch uint64) {
	m.st.Pool().AdvanceDurableTo(epoch)
}

// Shard returns the manager's store tagged with its shard slot.
func (m *Manager) Shard() *storage.Shard {
	return &storage.Shard{Store: m.st, ID: m.opts.shardID}
}
