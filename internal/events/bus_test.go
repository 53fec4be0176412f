package events

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

// recv pulls one event with a timeout so a broken bus fails the test
// instead of hanging it.
func recv(t *testing.T, sub *Subscriber) Event {
	t.Helper()
	select {
	case ev, ok := <-sub.C:
		if !ok {
			t.Fatal("subscriber channel closed unexpectedly")
		}
		return ev
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for event")
	}
	panic("unreachable")
}

func TestPublishUnwatchedTopicIsNoOp(t *testing.T) {
	b := NewBus(Options{})
	if b.Active("job/nobody") {
		t.Fatal("unsubscribed topic reported active")
	}
	// Must not create topic state or panic.
	b.Publish("job/nobody", TypeJob, true, []byte(`{}`))
	if b.Active("job/nobody") {
		t.Fatal("Publish created a topic; topics must be created by Subscribe only")
	}
}

// TestIdleTracksTopics: a bus is idle until its first subscription, stays
// busy after it however its topics come and go, and is idle again once
// Close has dropped every topic.
func TestIdleTracksTopics(t *testing.T) {
	b := NewBus(Options{MaxTopics: 1})
	if !b.Idle() {
		t.Fatal("a new bus is not idle")
	}
	b.Publish("job/a", TypeJob, false, []byte(`{}`))
	if !b.Idle() {
		t.Fatal("Publish made the bus busy")
	}
	sub := b.Subscribe("job/a", 0)
	if b.Idle() {
		t.Fatal("a bus with a subscriber reports idle")
	}
	sub.Close()
	if b.Idle() {
		t.Fatal("a bus that retains a topic reports idle")
	}
	b.Subscribe("job/b", 0) // evicts job/a
	if b.Idle() || b.Active("job/a") {
		t.Fatal("eviction left the wrong topics")
	}
	b.Close()
	if !b.Idle() {
		t.Fatal("a closed bus is not idle")
	}
}

func TestSubscribePublishOrder(t *testing.T) {
	b := NewBus(Options{})
	defer b.Close()
	sub := b.Subscribe("job/a", 0)
	defer sub.Close()
	if sub.Seq != 0 {
		t.Fatalf("fresh topic Seq = %d, want 0", sub.Seq)
	}
	for i := 1; i <= 3; i++ {
		b.Publish("job/a", TypeJob, i == 3, []byte(fmt.Sprintf(`{"n":%d}`, i)))
	}
	for i := 1; i <= 3; i++ {
		ev := recv(t, sub)
		if ev.ID != uint64(i) || ev.Type != TypeJob {
			t.Fatalf("event %d = {ID:%d Type:%q}", i, ev.ID, ev.Type)
		}
		if want := i == 3; ev.End != want {
			t.Fatalf("event %d End = %v, want %v", i, ev.End, want)
		}
	}
}

// TestSlowSubscriberCoalesces proves the bus never blocks a publisher: a
// consumer that stops draining has its overflow folded into a single sync
// event, and a terminal End flag survives the fold.
func TestSlowSubscriberCoalesces(t *testing.T) {
	b := NewBus(Options{SubscriberBuffer: 2})
	defer b.Close()
	sub := b.Subscribe("sweep/s", 0)
	defer sub.Close()

	// Fill the buffer and then keep publishing; the final publish is
	// terminal and must not be lost.
	for i := 0; i < 10; i++ {
		b.Publish("sweep/s", TypeSweep, false, []byte(`{"i":1}`))
	}
	b.Publish("sweep/s", TypeSweep, true, []byte(`{"done":true}`))

	sawSync, sawEnd := false, false
	for i := 0; i < 2+1; i++ { // buffer capacity worth of frames at most
		select {
		case ev := <-sub.C:
			if ev.Type == TypeSync {
				sawSync = true
			}
			if ev.End {
				sawEnd = true
			}
		case <-time.After(time.Second):
			t.Fatalf("starved after %d events (sync=%v end=%v)", i, sawSync, sawEnd)
		}
		if sawEnd {
			break
		}
	}
	if !sawSync {
		t.Fatal("overflow did not coalesce into a sync event")
	}
	if !sawEnd {
		t.Fatal("terminal End flag lost during coalescing")
	}
}

func TestReplayFromLastEventID(t *testing.T) {
	b := NewBus(Options{})
	defer b.Close()
	// Prime the topic: the ring only exists once someone subscribed.
	first := b.Subscribe("job/r", 0)
	for i := 1; i <= 5; i++ {
		b.Publish("job/r", TypeJob, false, []byte(fmt.Sprintf(`{"n":%d}`, i)))
	}
	first.Close()

	// A consumer that saw event 2 gets 3, 4, 5 replayed.
	sub := b.Subscribe("job/r", 2)
	defer sub.Close()
	if sub.Seq != 5 {
		t.Fatalf("Seq = %d, want 5", sub.Seq)
	}
	for want := uint64(3); want <= 5; want++ {
		ev := recv(t, sub)
		if ev.ID != want || ev.Type != TypeJob {
			t.Fatalf("replayed {ID:%d Type:%q}, want ID %d", ev.ID, ev.Type, want)
		}
	}
}

func TestReplayGapYieldsSync(t *testing.T) {
	b := NewBus(Options{})
	defer b.Close()
	first := b.Subscribe("job/g", 0)
	for i := 1; i <= ringSize+6; i++ { // ring holds only 7..ringSize+6
		b.Publish("job/g", TypeJob, false, nil)
	}
	first.Close()

	// lastID 2 is long gone from the ring: one sync, nothing else queued.
	sub := b.Subscribe("job/g", 2)
	defer sub.Close()
	ev := recv(t, sub)
	if ev.Type != TypeSync {
		t.Fatalf("gap resume delivered %q, want sync", ev.Type)
	}
	select {
	case extra := <-sub.C:
		t.Fatalf("unexpected extra event after sync: %+v", extra)
	default:
	}

	// lastID beyond the topic's sequence (prior incarnation): also sync.
	sub2 := b.Subscribe("job/g", 99)
	defer sub2.Close()
	if ev := recv(t, sub2); ev.Type != TypeSync {
		t.Fatalf("future resume delivered %q, want sync", ev.Type)
	}
}

// TestUnsubscribeDuringPublish hammers subscribe/close against a hot
// publisher; run with -race.
func TestUnsubscribeDuringPublish(t *testing.T) {
	b := NewBus(Options{SubscriberBuffer: 1})
	defer b.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				b.Publish("job/hot", TypeJob, false, []byte(`{}`))
			}
		}
	}()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				sub := b.Subscribe("job/hot", 0)
				// Drain a little, then detach mid-stream.
				select {
				case <-sub.C:
				default:
				}
				sub.Close()
				sub.Close() // idempotent
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestBusCloseReleasesSubscribers proves Close unblocks every stream and
// later operations are safe no-ops.
func TestBusCloseReleasesSubscribers(t *testing.T) {
	b := NewBus(Options{})
	subs := make([]*Subscriber, 5)
	for i := range subs {
		subs[i] = b.Subscribe(fmt.Sprintf("job/%d", i), 0)
	}
	done := make(chan struct{})
	go func() {
		for _, sub := range subs {
			for range sub.C {
			}
		}
		close(done)
	}()
	b.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not release blocked subscribers")
	}

	b.Close() // idempotent
	b.Publish("job/0", TypeJob, false, nil)
	late := b.Subscribe("job/0", 0)
	if _, ok := <-late.C; ok {
		t.Fatal("subscriber on a closed bus received an event")
	}
	late.Close() // born-closed close is a no-op
}

// TestTopicEviction verifies subscriber-free topics are recycled LRU-first
// once the cap is reached, and resuming watchers of an evicted topic are
// told to re-sync rather than silently missing events.
func TestTopicEviction(t *testing.T) {
	b := NewBus(Options{MaxTopics: 2})
	defer b.Close()
	b.Subscribe("job/old", 0).Close()
	b.Publish("job/old", TypeJob, false, nil) // seq 1
	b.Subscribe("job/new", 0).Close()

	// Third topic forces eviction of job/old (least recently used, idle).
	b.Subscribe("job/extra", 0).Close()
	if b.Active("job/old") {
		t.Fatal("LRU idle topic not evicted at cap")
	}
	if !b.Active("job/new") || !b.Active("job/extra") {
		t.Fatal("wrong topic evicted")
	}

	// Resuming against the recreated topic: the consumer's lastID is from a
	// prior incarnation, so it gets a sync.
	sub := b.Subscribe("job/old", 1)
	defer sub.Close()
	if ev := recv(t, sub); ev.Type != TypeSync {
		t.Fatalf("resume after eviction delivered %q, want sync", ev.Type)
	}
}

// TestLiveTopicsSurviveEviction: if every topic has a live subscriber the
// bus grows past the cap instead of cutting a stream.
func TestLiveTopicsSurviveEviction(t *testing.T) {
	b := NewBus(Options{MaxTopics: 2})
	defer b.Close()
	s1 := b.Subscribe("job/a", 0)
	defer s1.Close()
	s2 := b.Subscribe("job/b", 0)
	defer s2.Close()
	s3 := b.Subscribe("job/c", 0)
	defer s3.Close()
	if !b.Active("job/a") || !b.Active("job/b") || !b.Active("job/c") {
		t.Fatal("a live topic was evicted")
	}
}

func TestWriteEventScannerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := []Event{
		{ID: 1, Type: TypeJob, Data: []byte(`{"state":"RUNNING"}`)},
		{ID: 2, Type: TypeSync}, // data-less: must still dispatch
		{ID: 3, Type: TypeSweep, Data: []byte("line1\nline2")},
	}
	for _, ev := range in {
		if err := WriteEvent(&buf, ev); err != nil {
			t.Fatal(err)
		}
	}
	// Interleave spec noise the scanner must skip.
	stream := "retry: 1000\n\n: keep-alive\n\n" + buf.String()
	sc := NewScanner(strings.NewReader(stream))

	got0, err := sc.Next()
	if err != nil || got0.ID != 1 || got0.Type != TypeJob || string(got0.Data) != `{"state":"RUNNING"}` {
		t.Fatalf("frame 0 = %+v, %v", got0, err)
	}
	got1, err := sc.Next()
	if err != nil || got1.ID != 2 || got1.Type != TypeSync || string(got1.Data) != "{}" {
		t.Fatalf("frame 1 = %+v, %v", got1, err)
	}
	got2, err := sc.Next()
	if err != nil || got2.ID != 3 || string(got2.Data) != "line1\nline2" {
		t.Fatalf("frame 2 = %+v, %v", got2, err)
	}
	if _, err := sc.Next(); err != io.EOF {
		t.Fatalf("end of stream = %v, want io.EOF", err)
	}

	// A partial trailing frame is a broken connection, not a clean end.
	sc = NewScanner(strings.NewReader("id: 4\nevent: job\ndata: {"))
	if _, err := sc.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("partial frame = %v, want io.ErrUnexpectedEOF", err)
	}
}
