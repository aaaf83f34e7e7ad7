package catalogue

import (
	"context"
	"encoding/json"
	"testing"

	"mathcloud/internal/journal"
)

// TestJournalRecoversEntriesTagsAndIndex drives every journaled mutation on
// both sides of a checkpoint, then rebuilds a fresh catalogue from the same
// directory: entries and tags must match, and search must work, which shows
// the full-text index was rebuilt from the replay.
func TestJournalRecoversEntriesTagsAndIndex(t *testing.T) {
	dir := t.TempDir()
	jl, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := New(seedDescriber())
	if err := c.AttachJournal(jl); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, uri := range []string{"http://a/services/invert", "http://a/services/solver", "http://b/services/xray"} {
		if _, err := c.Register(ctx, uri, []string{"seed"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.AddTags("http://a/services/solver", []string{"persisted"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Unregister("http://b/services/xray"); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Mutations after the checkpoint live only in the log tail.
	if _, err := c.Register(ctx, "http://b/services/xray", []string{"physics"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddTags("http://a/services/invert", []string{"late"}); err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(c.List())
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	jl2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	restored := New(newFakeDescriber()) // the describer is not consulted on replay
	if err := restored.AttachJournal(jl2); err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(restored.List())
	if string(got) != string(want) {
		t.Fatalf("restored entries differ:\n got %s\nwant %s", got, want)
	}
	for query, service := range map[string]string{"persisted": "solver", "late": "invert", "scattering": "xray"} {
		res := restored.Search(query, SearchOptions{})
		if len(res) != 1 || res[0].Name != service {
			t.Errorf("restored search %q = %+v, want %s", query, res, service)
		}
	}
}

func TestAttachJournalRejectsUndecodableRecord(t *testing.T) {
	dir := t.TempDir()
	jl, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Append(journal.KindCatRegister, "not an entry record"); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	// Replay reads what the journal held when it was opened.
	jl, err = journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	if err := New(newFakeDescriber()).AttachJournal(jl); err == nil {
		t.Fatal("a catalogue record that does not decode was replayed without error")
	}
}
