package container

import "time"

// reapInterval is how often the destruction-time reaper scans for expired
// terminal jobs and sweeps.
const reapInterval = 30 * time.Second

// reaper periodically purges terminal jobs and sweeps past their destruction
// time (UWS §2: results have a lifetime, not a lease on the server forever).
func (jm *JobManager) reaper() {
	defer jm.wg.Done()
	t := time.NewTicker(reapInterval)
	defer t.Stop()
	for {
		select {
		case <-jm.baseCtx.Done():
			return
		case <-t.C:
			jm.Reap(time.Now())
		}
	}
}

// Reap purges every terminal job and sweep whose destruction time is at or
// before now, returning how many jobs it destroyed.  Exported for tests and
// for operators who want an explicit sweep (the background reaper calls it
// every 30s).
func (jm *JobManager) Reap(now time.Time) int {
	reaped := 0
	jm.sweeps.mu.RLock()
	sweeps := make([]*sweepRecord, 0, len(jm.sweeps.sweeps))
	for _, sw := range jm.sweeps.sweeps {
		sweeps = append(sweeps, sw)
	}
	jm.sweeps.mu.RUnlock()
	for _, sw := range sweeps {
		sw.mu.Lock()
		d := sw.destruction
		sw.mu.Unlock()
		if d.IsZero() || d.After(now) {
			continue
		}
		// Count the children that still exist; DeleteSweep purges them.
		live := 0
		for _, cid := range sw.childIDs {
			if _, err := jm.record(cid); err == nil {
				live++
			}
		}
		if _, err := jm.DeleteSweep(sw.id); err == nil {
			reaped += live
		}
	}
	for _, rec := range jm.allRecords() {
		if rec.sweep != nil {
			continue // the sweep's own destruction time governs its children
		}
		d := rec.destruction(rec.phase.Load())
		if d.IsZero() || d.After(now) {
			continue
		}
		if _, err := jm.delete(rec); err == nil {
			reaped++
		}
	}
	if reaped > 0 {
		metJobsReaped.Add(float64(reaped))
	}
	return reaped
}
