package container

import (
	"sync"
	"sync/atomic"

	"mathcloud/internal/core"
)

// runQueue is the JobManager's one queue (the paper's Fig. 1 "queue served
// by a configurable pool of handler threads"): every record waiting for a
// worker — a standalone job, a sweep child, a job re-driven after a restart
// — waits here, and workers take them from the head in admission order.  It
// is a growable ring of records under one mutex; workers sleep on the
// condition variable while it is empty.
//
// Lock order: runQueue.mu may be held while taking jobRecord.mu (push marks
// records queued), never the reverse.
type runQueue struct {
	mu   sync.Mutex
	cond sync.Cond
	ring []*jobRecord
	head int // index of the oldest record in ring
	n    int // records held, waiting or not
	// waiting counts the held records still WAITING: push adds the ones it
	// marks queued, and leave takes each out as it leaves WAITING.
	// Admission and the depth report read it, so a record cancelled while
	// queued frees its slot at once, not when a worker pops it.
	waiting atomic.Int64
	// limit is the admission bound of standalone submissions (QueueSize).
	limit  int
	closed bool
}

func (q *runQueue) init(limit int) {
	q.cond.L = &q.mu
	q.limit = limit
}

// errQueueFull is the admission refusal of a standalone submission.  A full
// queue is a transient overload, not a request conflict: it answers 503 with
// a retry hint so client retry policies absorb it.
var errQueueFull = core.ErrUnavailable(queueFullRetryAfter, "job queue is full")

// errShuttingDown refuses work once the JobManager is closing.
var errShuttingDown = core.ErrUnavailable(0, "container is shutting down")

// push appends recs to the tail in order and wakes the workers; it is the
// only way into the queue.  admit applies the admission bound: a standalone
// submission is refused while limit records wait, whereas sweep
// children and recovered jobs were admitted as a whole and always enter.
// Every push is refused once the queue is closed.  A record that left
// WAITING before its push (a child cancelled between its sweep's
// publication and this call) is skipped; the rest are marked queued, and
// whichever of beginJob or a cancelling land takes one out of WAITING calls
// leave for it.
func (q *runQueue) push(admit bool, recs ...*jobRecord) error {
	q.mu.Lock()
	switch {
	case q.closed:
		q.mu.Unlock()
		return errShuttingDown
	case admit && q.waiting.Load() >= int64(q.limit):
		q.mu.Unlock()
		return errQueueFull
	}
	queued := 0
	for _, rec := range recs {
		rec.mu.Lock()
		waiting := rec.phase.Load().state == phaseWaiting
		rec.queued = waiting
		rec.mu.Unlock()
		if !waiting {
			continue
		}
		if q.n == len(q.ring) {
			q.grow()
		}
		q.ring[(q.head+q.n)%len(q.ring)] = rec
		q.n++
		queued++
	}
	q.waiting.Add(int64(queued))
	metJobsWaiting.Add(float64(queued))
	q.mu.Unlock()
	// Wake after unlocking, so a woken worker does not block on q.mu.
	if queued == 1 {
		q.cond.Signal()
	} else if queued > 1 {
		q.cond.Broadcast()
	}
	return nil
}

// grow doubles the ring, unrolling it so the head lands at index 0.
func (q *runQueue) grow() {
	ring := make([]*jobRecord, max(2*len(q.ring), 64))
	copy(ring, q.ring[q.head:])
	copy(ring[len(q.ring)-q.head:], q.ring[:q.head])
	q.ring, q.head = ring, 0
}

// popLocked removes and returns the head record.  q.n must be positive.
func (q *runQueue) popLocked() *jobRecord {
	rec := q.ring[q.head]
	q.ring[q.head] = nil
	q.head = (q.head + 1) % len(q.ring)
	q.n--
	return rec
}

// pop blocks until a record is at the head and removes it, or returns nil
// once the queue is closed.
func (q *runQueue) pop() *jobRecord {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		return nil
	}
	return q.popLocked()
}

// popSame appends to batch the records at the head that belong to the
// service of batch[0], up to size members in all.  It stops at the first
// record of another service, which stays at the head for the next pop.
func (q *runQueue) popSame(batch []*jobRecord, size int) []*jobRecord {
	service := batch[0].service
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(batch) < size && q.n > 0 && q.ring[q.head].service == service {
		batch = append(batch, q.popLocked())
	}
	return batch
}

// leave takes one queued record out of the waiting count and the
// queue-depth gauge.
func (q *runQueue) leave() {
	q.waiting.Add(-1)
	metJobsWaiting.Add(-1)
}

// depth reports how many records wait for a worker.
func (q *runQueue) depth() int { return int(q.waiting.Load()) }

// close refuses every later push, wakes the workers so they exit, and
// returns the records the queue still held, oldest first, for the caller
// to cancel.
func (q *runQueue) close() []*jobRecord {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	held := make([]*jobRecord, 0, q.n)
	for q.n > 0 {
		held = append(held, q.popLocked())
	}
	q.cond.Broadcast()
	return held
}
