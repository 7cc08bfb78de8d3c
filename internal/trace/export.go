package trace

import (
	"bufio"
	"encoding/json"
	"io"
)

// Structured exporters for recorded phase traces. Both formats carry the
// same spans as the ASCII timeline, ordered by (rank, start), so output
// for a deterministic run (fixed seed on a simulated platform) is
// byte-identical across runs.

// WriteJSONL writes one JSON object per span:
//
//	{"rank":0,"phase":"compute","t0":0,"t1":1.5}
//
// Times are in seconds (virtual seconds on simulated platforms).
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw) // Encode appends the newline
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// chromeEvent is one complete ("ph":"X") event of the Chrome trace
// format. Times are microseconds.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

// chromeTrace is the JSON Object Format variant of the Chrome trace file,
// loadable in chrome://tracing and Perfetto.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace writes the spans in Chrome trace format: one complete
// event per span, with the rank as the thread id, so chrome://tracing
// (or Perfetto) renders the same per-rank lanes as the ASCII timeline.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	spans := r.Spans()
	ct := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(spans)), DisplayTimeUnit: "ms"}
	for _, s := range spans {
		ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
			Name: s.Phase,
			Cat:  "phase",
			Ph:   "X",
			Ts:   s.T0 * 1e6,
			Dur:  (s.T1 - s.T0) * 1e6,
			Pid:  0,
			Tid:  s.Rank,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(ct)
}
