package xtrace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/fa"
	"repro/internal/stream"
)

// streamModel mirrors the stdio corpus model: two good protocol
// instances and the error modes an online checker should flag.
func streamModel() Model {
	return Model{
		Scenarios: []Scenario{
			{Name: "file", Good: true, Weight: 8, Events: []Event{
				Ev("X = fopen()"),
				Rep("fread(X)", 0, 2),
				Rep("fwrite(X)", 0, 2),
				Ev("fclose(X)"),
			}},
			{Name: "pipe", Good: true, Weight: 6, Events: []Event{
				Ev("X = popen()"),
				Rep("fread(X)", 0, 2),
				Ev("pclose(X)"),
			}},
			{Name: "pipe-fclose", Good: false, Kind: Misuse, Weight: 2, Events: []Event{
				Ev("X = popen()"),
				Rep("fread(X)", 0, 1),
				Ev("fclose(X)"),
			}},
			{Name: "file-leak", Good: false, Kind: Leak, Weight: 1, Events: []Event{
				Ev("X = fopen()"),
				Rep("fread(X)", 1, 2),
			}},
		},
	}
}

// loopingStdioFA is the streaming form of the stdio specification: the
// start state is accepting and every good protocol instance returns to
// it, so a stream of back-to-back instances is accepted end to end.
func loopingStdioFA(t *testing.T) *fa.FA {
	t.Helper()
	b := fa.NewBuilder("stdio-stream")
	s := b.States(3)
	b.Start(s[0])
	b.Accept(s[0])
	b.EdgeStr(s[0], "X = fopen()", s[1])
	b.EdgeStr(s[1], "fread(X)", s[1])
	b.EdgeStr(s[1], "fwrite(X)", s[1])
	b.EdgeStr(s[1], "fclose(X)", s[0])
	b.EdgeStr(s[0], "X = popen()", s[2])
	b.EdgeStr(s[2], "fread(X)", s[2])
	b.EdgeStr(s[2], "fwrite(X)", s[2])
	b.EdgeStr(s[2], "pclose(X)", s[0])
	return b.MustBuild()
}

func TestStreamsDeterministic(t *testing.T) {
	g := Generator{Model: streamModel(), Seed: 7}
	a, labelsA := g.Streams(20, 5)
	b, labelsB := g.Streams(20, 5)
	if len(a) != 20 || len(b) != 20 {
		t.Fatalf("got %d and %d scripts, want 20", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Bad != b[i].Bad || !bytes.Equal(a[i].NDJSON(), b[i].NDJSON()) {
			t.Fatalf("script %d differs between identically seeded generators", i)
		}
		if len(a[i].Events) == 0 {
			t.Fatalf("script %d is empty", i)
		}
		if a[i].Bad < 0 || a[i].Bad > 5 {
			t.Fatalf("script %d: Bad = %d out of range", i, a[i].Bad)
		}
	}
	if len(labelsA) != len(labelsB) {
		t.Fatalf("labelings differ: %d vs %d classes", len(labelsA), len(labelsB))
	}
	for k, v := range labelsA {
		if labelsB[k] != v {
			t.Fatalf("labeling differs for %q", k)
		}
	}
}

// TestStreamsOnline feeds every generated script through an online
// checker against the looping stdio specification: scripts made only of
// good instances check clean end to end, and every script carrying an
// erroneous instance yields at least one violation (counting the
// finalization one — a trailing leak only surfaces at close).
func TestStreamsOnline(t *testing.T) {
	sim := loopingStdioFA(t).Sim()

	good := streamModel()
	good.Scenarios = good.Scenarios[:2]
	gg, _ := Generator{Model: good, Seed: 3}.Streams(30, 6)
	for _, s := range gg {
		c := stream.New(sim, stream.Config{})
		accepted, issues, err := stream.Ingest(c, bytes.NewReader(s.NDJSON()), func(stream.Violation) {
			t.Errorf("%s: violation on an all-good script", s.ID)
		})
		if err != nil || len(issues) != 0 {
			t.Fatalf("%s: ingest: err=%v issues=%v", s.ID, err, issues)
		}
		if accepted != len(s.Events) {
			t.Fatalf("%s: accepted %d of %d events", s.ID, accepted, len(s.Events))
		}
		if _, fired := c.Finalize(); fired {
			t.Errorf("%s: all-good script finalized mid-protocol", s.ID)
		}
	}

	mixed, _ := Generator{Model: streamModel(), Seed: 11}.Streams(40, 4)
	sawBad := false
	for _, s := range mixed {
		c := stream.New(sim, stream.Config{})
		violations := 0
		if _, _, err := stream.Ingest(c, bytes.NewReader(s.NDJSON()), func(stream.Violation) { violations++ }); err != nil {
			t.Fatalf("%s: ingest: %v", s.ID, err)
		}
		if _, fired := c.Finalize(); fired {
			violations++
		}
		if s.Bad == 0 && violations != 0 {
			t.Errorf("%s: %d violations on a script with no bad instances", s.ID, violations)
		}
		if s.Bad > 0 {
			sawBad = true
			if violations == 0 {
				t.Errorf("%s: %d bad instances but no violations", s.ID, s.Bad)
			}
		}
	}
	if !sawBad {
		t.Fatal("no script carried a bad instance; enlarge the batch")
	}
}

// NDJSON renders the script in the wire format of cabled's
// /v1/streams/{id}/events endpoint and the cable CLI's offline mode:
// one {"event": ...} object per line.
func (s StreamScript) NDJSON() []byte {
	var b bytes.Buffer
	for _, e := range s.Events {
		line, err := json.Marshal(stream.Line{Event: e.String()})
		if err != nil {
			panic(fmt.Sprintf("xtrace: marshalling event line: %v", err)) // cannot fail: Line is a string field
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.Bytes()
}
