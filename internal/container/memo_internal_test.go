package container

import (
	"fmt"
	"io"
	"log"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mathcloud/internal/core"
)

// TestMemoSettlementLeavesNoGap races the submit gate — lookup, then
// joinOrLead, as SubmitCtx probes a key — against the settlement of the
// key's flight.  Every probe must find the cached entry or join the open
// flight; a probe that finds neither leads a second execution of a result
// that is already computed.
func TestMemoSettlementLeavesNoGap(t *testing.T) {
	c, err := New(Options{Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	jm := c.jobs
	// Outputs that take a moment to marshal widen any window settlement
	// leaves between dropping the flight and caching the entry.
	outputs := core.Values{}
	for i := 0; i < 64; i++ {
		outputs[fmt.Sprintf("y%d", i)] = strings.Repeat("x", 64)
	}

	const keys, probers = 100, 4
	var seconds atomic.Int64
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("gap-%d", k)
		leader := &jobRecord{
			job:     &core.Job{ID: fmt.Sprintf("lead-%d", k), Service: "s", State: core.StateWaiting},
			done:    make(chan struct{}),
			memoKey: key,
		}
		if _, _, lead := jm.memo.joinOrLead(key, leader); !lead {
			t.Fatalf("%s: first submission did not lead", key)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for p := 0; p < probers; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for {
					if _, ok := jm.memo.lookup(key); ok {
						return
					}
					probe := &jobRecord{
						job:  &core.Job{ID: "probe", Service: "s", State: core.StateWaiting},
						done: make(chan struct{}),
					}
					_, hit, lead := jm.memo.joinOrLead(key, probe)
					if hit {
						return
					}
					if lead {
						seconds.Add(1)
						return
					}
				}
			}()
		}
		close(start)
		jm.land(leader, core.StateWaiting, core.StateDone, outputs, "")
		wg.Wait()
	}
	if n := seconds.Load(); n != 0 {
		t.Fatalf("%d of %d keys got a second leader while their flight settled", n, keys)
	}
}
