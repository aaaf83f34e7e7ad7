package catalogue

import (
	"fmt"

	"mathcloud/internal/journal"
	"mathcloud/internal/obs"
)

// Persistence for the catalogue (DESIGN.md §5i).  The paper's catalogue
// "stores description along with specified tags in a database"; here the
// database is a write-ahead journal.  Every registration, tag update and
// unregistration is appended as it happens, so a crash loses nothing, and
// Checkpoint folds the whole catalogue into one journal snapshot.  Replay
// rebuilds the full-text index.  The journal uses the shared record framing
// of internal/journal with the two kinds reserved for the catalogue.

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
// record wins, index rebuilt) and then attaches it, so every later mutation
// is appended.  Call once at startup, before the catalogue serves requests.
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
	return nil
}

// logEntry journals one entry image; logUnregister journals a removal.
// Both no-op without an attached journal and log append failures instead of
// failing the request (the in-memory state is already mutated).
func (c *Catalogue) logEntry(e *Entry) {
	if c.jl == nil {
		return
	}
	if err := c.jl.Append(journal.KindCatRegister, entryRecord{Entry: e}); err != nil {
		obs.Logger().Error("catalogue: journal append failed", "error", err)
	}
}

func (c *Catalogue) logUnregister(uri string) {
	if c.jl == nil {
		return
	}
	if err := c.jl.Append(journal.KindCatUnregister, unregisterRecord{URI: uri}); err != nil {
		obs.Logger().Error("catalogue: journal append failed", "error", err)
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
