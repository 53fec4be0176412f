package events

import (
	"sync"
	"sync/atomic"

	"mathcloud/internal/obs"
)

// Metrics for the event plane, registered process-wide like every other
// obs series (DESIGN.md §5d).
var (
	metricSubscribers = obs.NewGauge("mc_events_subscribers",
		"Current number of event-bus subscribers across all topics.")
	metricPublished = obs.NewCounter("mc_events_published_total",
		"Events published to at least one watched topic.")
	metricDropped = obs.NewCounter("mc_events_dropped_total",
		"Events dropped from slow subscribers (coalesced into a sync event).")
)

// Options tunes a Bus.  The zero value selects the defaults.
type Options struct {
	// SubscriberBuffer is the per-subscriber channel capacity.  A
	// subscriber that falls further behind than this has its queue
	// coalesced to a sync event.  Default 32.
	SubscriberBuffer int
	// MaxTopics caps the number of topics with retained ring state.  When
	// exceeded, the least-recently-used topic with no live subscribers is
	// evicted (its ring is lost; resuming watchers get a sync event).
	// Default 4096.
	MaxTopics int
}

const (
	// ringSize is how many recent events each topic retains for
	// Last-Event-ID resume.
	ringSize                = 64
	defaultSubscriberBuffer = 32
	defaultMaxTopics        = 4096
)

// Bus is a topic-keyed fan-out of Events with bounded buffers everywhere:
// per-topic replay rings, per-subscriber channels, and a cap on live
// topics.  All methods are safe for concurrent use.  Lock order is
// Bus.mu → topic.mu; neither is ever held while calling out.
type Bus struct {
	opts Options

	clock atomic.Uint64 // logical time for topic LRU eviction

	mu     sync.RWMutex
	topics map[string]*topic
	closed bool
	// subscribed is set by the first Subscribe and cleared by Close, so
	// Idle reads it without the lock.
	subscribed atomic.Bool
}

type topic struct {
	name string

	mu      sync.Mutex
	seq     uint64 // ID of the most recently published event
	ring    []Event
	next    int  // ring insertion point
	full    bool // ring has wrapped
	subs    map[*Subscriber]struct{}
	lastUse uint64 // bus.clock at last subscribe/publish, for eviction
}

// Subscriber is one attached consumer.  Receive from C; events arrive in
// publication order.  The channel is closed when the subscriber is closed,
// the bus shuts down, or — after an End event — the topic is done.
type Subscriber struct {
	// C delivers the topic's events.
	C <-chan Event
	// Seq is the topic's event sequence at subscription time; a snapshot
	// fetched immediately after subscribing reflects at least this many
	// events and can be stamped with it.
	Seq uint64

	t      *topic
	ch     chan Event
	closed bool // guarded by t.mu
}

// NewBus returns a Bus with the given options.
func NewBus(opts Options) *Bus {
	if opts.SubscriberBuffer <= 0 {
		opts.SubscriberBuffer = defaultSubscriberBuffer
	}
	if opts.MaxTopics <= 0 {
		opts.MaxTopics = defaultMaxTopics
	}
	return &Bus{opts: opts, topics: make(map[string]*topic)}
}

// Active reports whether the topic has ever been subscribed to and still
// retains state.  Publishers use it as a cheap gate to skip snapshotting
// and marshalling for unwatched resources.
func (b *Bus) Active(name string) bool {
	b.mu.RLock()
	_, ok := b.topics[name]
	b.mu.RUnlock()
	return ok
}

// Idle reports whether nobody has subscribed to the bus since it was
// created.  It is one atomic load, so a publisher asks it before it builds
// the name of a topic to ask Active about.  It is a latch: after the first
// subscription it stays false until Close, however many topics are evicted.
// A subscription that races the answer is covered as for Active.
func (b *Bus) Idle() bool { return !b.subscribed.Load() }

// Seq returns the ID of the topic's latest event, or 0 for a topic with no
// retained state.
func (b *Bus) Seq(name string) uint64 {
	b.mu.RLock()
	t := b.topics[name]
	b.mu.RUnlock()
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Publish appends an event to the topic and fans it out to subscribers.
// It never blocks: a subscriber whose buffer is full has its oldest queued
// event replaced by a coalesced sync event.  Publishing to a topic nobody
// ever subscribed to is a no-op — topics are created by Subscribe only.
func (b *Bus) Publish(name, typ string, end bool, data []byte) {
	b.mu.RLock()
	t := b.topics[name]
	b.mu.RUnlock()
	if t == nil {
		// Nobody ever watched this resource (or the bus is closed and the
		// topic map was cleared): skip entirely.
		return
	}
	use := b.clock.Add(1)

	t.mu.Lock()
	t.seq++
	t.lastUse = use
	ev := Event{ID: t.seq, Type: typ, Data: data, End: end}
	// Retain for Last-Event-ID resume.
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, ev)
	} else {
		t.ring[t.next] = ev
		t.full = true
	}
	t.next = (t.next + 1) % cap(t.ring)
	for sub := range t.subs {
		sub.deliverLocked(ev)
	}
	t.mu.Unlock()
	metricPublished.Inc()
}

// deliverLocked enqueues ev on the subscriber, coalescing on overflow.
// Caller holds t.mu, which also serialises against Close, so sending on
// s.ch cannot race a channel close.
func (s *Subscriber) deliverLocked(ev Event) {
	if s.closed {
		return
	}
	select {
	case s.ch <- ev:
		return
	default:
	}
	// Full: drop the oldest queued event and replace the newest slot with
	// a sync marker telling the consumer to re-fetch.  The End flag must
	// survive coalescing or a terminal transition could be lost.
	end := ev.End
	select {
	case old := <-s.ch:
		end = end || old.End
		metricDropped.Inc()
	default:
	}
	// Drain left room for at least one element; if another sync is already
	// queued the second send below still fits because we just removed one.
	select {
	case s.ch <- Event{ID: ev.ID, Type: TypeSync, End: end}:
	default:
		metricDropped.Inc()
	}
}

// Subscribe attaches a consumer to the topic, creating it if needed.
// lastID is the Last-Event-ID the consumer previously saw: events after it
// still held in the topic ring are replayed into the subscriber's buffer;
// if the ring no longer covers the gap (or the topic was evicted and its
// sequence restarted) a single sync event is queued instead.  lastID 0
// means a fresh subscription with no replay — the caller is expected to
// fetch a snapshot after subscribing, which closes the missed-event race.
func (b *Bus) Subscribe(name string, lastID uint64) *Subscriber {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		ch := make(chan Event)
		close(ch)
		return &Subscriber{C: ch, ch: ch, closed: true}
	}
	t := b.topics[name]
	if t == nil {
		if len(b.topics) >= b.opts.MaxTopics {
			b.evictLocked()
		}
		t = &topic{
			name: name,
			ring: make([]Event, 0, ringSize),
			subs: make(map[*Subscriber]struct{}),
		}
		b.topics[name] = t
		b.subscribed.Store(true)
	}
	use := b.clock.Add(1)
	b.mu.Unlock()

	t.mu.Lock()
	t.lastUse = use
	ch := make(chan Event, b.opts.SubscriberBuffer)
	sub := &Subscriber{C: ch, ch: ch, t: t, Seq: t.seq}
	t.subs[sub] = struct{}{}
	switch {
	case lastID == 0:
		// Fresh attach: no replay, caller snapshots.
	case lastID > t.seq:
		// The consumer saw IDs from a prior incarnation of this topic
		// (evicted ring); its position is meaningless, tell it to re-fetch.
		sub.deliverLocked(Event{ID: t.seq, Type: TypeSync})
	case lastID < t.seq:
		if replay, ok := t.replayLocked(lastID); ok {
			for _, ev := range replay {
				sub.deliverLocked(ev)
			}
		} else {
			sub.deliverLocked(Event{ID: t.seq, Type: TypeSync})
		}
	}
	t.mu.Unlock()
	metricSubscribers.Add(1)
	return sub
}

// replayLocked returns the retained events with ID > lastID, or ok=false
// when the ring has wrapped past lastID.  Caller holds t.mu.
func (t *topic) replayLocked(lastID uint64) ([]Event, bool) {
	n := len(t.ring)
	if n == 0 {
		return nil, false
	}
	oldest := t.ring[0].ID
	if t.full {
		oldest = t.ring[t.next].ID
	}
	if lastID < oldest-1 {
		return nil, false // gap: events between lastID and the ring are gone
	}
	out := make([]Event, 0, n)
	start := 0
	if t.full {
		start = t.next
	}
	for i := 0; i < n; i++ {
		ev := t.ring[(start+i)%n]
		if ev.ID > lastID {
			out = append(out, ev)
		}
	}
	return out, true
}

// evictLocked removes the least-recently-used topic that has no live
// subscribers.  Caller holds b.mu.  If every topic is actively watched
// nothing is evicted — the map grows past MaxTopics rather than cutting a
// live stream.
func (b *Bus) evictLocked() {
	var victim *topic
	var victimUse uint64
	for _, t := range b.topics {
		t.mu.Lock()
		idle := len(t.subs) == 0
		use := t.lastUse
		t.mu.Unlock()
		if !idle {
			continue
		}
		if victim == nil || use < victimUse {
			victim, victimUse = t, use
		}
	}
	if victim != nil {
		delete(b.topics, victim.name)
	}
}

// Close detaches the subscriber and closes its channel.  Safe to call more
// than once and safe concurrently with Publish.
func (s *Subscriber) Close() {
	t := s.t
	if t == nil {
		return // subscriber born closed (bus already shut down)
	}
	t.mu.Lock()
	if s.closed {
		t.mu.Unlock()
		return
	}
	s.closed = true
	delete(t.subs, s)
	close(s.ch)
	t.mu.Unlock()
	metricSubscribers.Add(-1)
}

// Close shuts the bus down: every subscriber channel is closed and all
// topic state is released.  Publish and Subscribe afterwards are safe
// no-ops (Subscribe returns an already-closed subscriber).
func (b *Bus) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	topics := b.topics
	b.topics = make(map[string]*topic)
	b.subscribed.Store(false)
	b.mu.Unlock()

	for _, t := range topics {
		t.mu.Lock()
		for sub := range t.subs {
			if !sub.closed {
				sub.closed = true
				close(sub.ch)
				metricSubscribers.Add(-1)
			}
		}
		t.subs = make(map[*Subscriber]struct{})
		t.mu.Unlock()
	}
}
