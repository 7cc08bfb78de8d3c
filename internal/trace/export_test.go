package trace

import (
	"encoding/json"
	"io"
	"strings"
	"testing"
)

func exportRecorder() *Recorder {
	r := New()
	r.Record(1, PhaseCompute, 0, 2)
	r.Record(0, PhaseCompute, 0, 1.5)
	r.Record(0, PhaseWrite, 1.5, 1.75)
	return r
}

func TestWriteJSONL(t *testing.T) {
	var b strings.Builder
	if err := exportRecorder().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want 3:\n%s", len(lines), b.String())
	}
	// Ordered by (rank, t0); every line parses back to the span.
	var s Span
	if err := json.Unmarshal([]byte(lines[0]), &s); err != nil {
		t.Fatal(err)
	}
	if s.Rank != 0 || s.Phase != PhaseCompute || s.T1 != 1.5 {
		t.Fatalf("first span %+v", s)
	}
	if err := json.Unmarshal([]byte(lines[2]), &s); err != nil {
		t.Fatal(err)
	}
	if s.Rank != 1 || s.T1 != 2 {
		t.Fatalf("last span %+v", s)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	var b strings.Builder
	if err := exportRecorder().WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var ct struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(b.String()), &ct); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	if len(ct.TraceEvents) != 3 || ct.DisplayTimeUnit != "ms" {
		t.Fatalf("trace %+v", ct)
	}
	ev := ct.TraceEvents[1] // rank 0's write span
	if ev.Name != PhaseWrite || ev.Ph != "X" || ev.Tid != 0 {
		t.Fatalf("event %+v", ev)
	}
	// Microsecond conversion: 1.5s -> 1.5e6, 0.25s -> 2.5e5.
	if ev.Ts != 1.5e6 || ev.Dur != 0.25e6 {
		t.Fatalf("event times ts=%v dur=%v", ev.Ts, ev.Dur)
	}
}

func TestExportDeterministic(t *testing.T) {
	// Same spans recorded in different orders must export identically:
	// the exports sort by (rank, start) exactly like Spans().
	a, b := New(), New()
	a.Record(0, PhaseCompute, 0, 1)
	a.Record(1, PhaseWrite, 1, 2)
	a.Record(0, PhaseSync, 2, 3)
	b.Record(0, PhaseSync, 2, 3)
	b.Record(0, PhaseCompute, 0, 1)
	b.Record(1, PhaseWrite, 1, 2)
	for _, ex := range []struct {
		format string
		write  func(*Recorder, io.Writer) error
	}{
		{"jsonl", (*Recorder).WriteJSONL},
		{"chrome", (*Recorder).WriteChromeTrace},
	} {
		var sa, sb strings.Builder
		if err := ex.write(a, &sa); err != nil {
			t.Fatal(err)
		}
		if err := ex.write(b, &sb); err != nil {
			t.Fatal(err)
		}
		if sa.String() != sb.String() {
			t.Fatalf("%s export order-dependent:\n%s\nvs\n%s", ex.format, sa.String(), sb.String())
		}
	}
}
