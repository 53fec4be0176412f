package catalogue

import (
	"context"
	"errors"
	"fmt"
	"log/slog"

	"mathcloud/internal/journal"
	"mathcloud/internal/obs"
)

// The paper's catalogue "performs indexing and stores description along with
// specified tags in a database".  The database is a write-ahead journal
// (DESIGN.md §5i): every registration, tag update and unregistration is
// appended as it happens, and a periodic checkpoint folds the entries into
// one snapshot.  The journal uses the shared record framing of
// internal/journal with the two kinds reserved for the catalogue; the index
// is rebuilt on replay.

// entryRecord is the KindCatRegister payload: the full entry image (register
// and tag updates both emit it; replay upserts by URI, last wins).
type entryRecord struct {
	Entry *Entry `json:"entry"`
}

// unregisterRecord is the KindCatUnregister payload.
type unregisterRecord struct {
	URI string `json:"uri"`
}

// AttachJournal replays the journal into the catalogue (upsert by URI, last
// record wins, index rebuilt), attaches it, so every later mutation is
// appended, and starts its checkpoint loop.  Call once at startup, before
// the catalogue serves requests; closing the journal stops the loop.
func (c *Catalogue) AttachJournal(jl *journal.Journal) error {
	entries := make(map[string]*Entry)
	var order []string
	err := jl.Replay(func(kind journal.Kind, data []byte) error {
		switch kind {
		case journal.KindCatRegister:
			var r entryRecord
			if err := journal.Decode(data, &r); err != nil {
				return err
			}
			if r.Entry == nil || r.Entry.URI == "" {
				return nil
			}
			if _, seen := entries[r.Entry.URI]; !seen {
				order = append(order, r.Entry.URI)
			}
			entries[r.Entry.URI] = r.Entry
		case journal.KindCatUnregister:
			var r unregisterRecord
			if err := journal.Decode(data, &r); err != nil {
				return err
			}
			delete(entries, r.URI)
		}
		// Other kinds (a journal shared with a container) are not ours.
		return nil
	})
	if err != nil {
		return fmt.Errorf("catalogue: recover: %w", err)
	}
	c.mu.Lock()
	for _, uri := range order {
		e, ok := entries[uri]
		if !ok {
			continue
		}
		c.entries[uri] = e
		c.reindex(e)
	}
	c.jl = jl
	c.mu.Unlock()
	jl.StartCheckpoints(0, 0, func() {
		if err := c.Checkpoint(); err != nil {
			obs.Log(context.Background(), slog.LevelError, "catalogue: checkpoint failed", slog.Any("error", err))
		}
	})
	return nil
}

// logRecord journals one mutation (an entry image or a removal).  It no-ops
// without an attached journal and logs append failures instead of failing
// the request (the in-memory state is already mutated); appends after the
// journal closed for shutdown are dropped silently.
func (c *Catalogue) logRecord(kind journal.Kind, v any) {
	if c.jl == nil {
		return
	}
	if err := c.jl.Append(kind, v); err != nil && !errors.Is(err, journal.ErrClosed) {
		obs.Log(context.Background(), slog.LevelError, "catalogue: journal append failed", slog.Any("error", err))
	}
}

// Checkpoint folds the catalogue into one journal snapshot and truncates the
// log behind it.
func (c *Catalogue) Checkpoint() error {
	if c.jl == nil {
		return fmt.Errorf("catalogue: no journal attached")
	}
	return c.jl.Snapshot(func(app func(kind journal.Kind, v any) error) error {
		for _, e := range c.List() {
			if err := app(journal.KindCatRegister, entryRecord{Entry: e}); err != nil {
				return err
			}
		}
		return nil
	})
}
