package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// A traced run's record, written when the run ends: the spans as Chrome
// trace JSON (chrome://tracing, Perfetto) and as JSONL, and the boundary
// counts of every traced repetition.

// chromeEvent is one complete ("ph":"X") event; times are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

func writeTrace(dir, workload string, spans []span, traced []repResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		if s.T1 <= s.T0 {
			continue
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: workload, Ph: "X", Ts: s.T0 * 1e6, Dur: (s.T1 - s.T0) * 1e6,
			// Lane 0 holds the spans of no single rank; clients follow.
			Tid: s.Rank + 1, Args: map[string]int{"id": s.ID, "parent": s.Parent},
		})
	}
	err := writeJSONFile(filepath.Join(dir, workload+".trace.json"), map[string]interface{}{
		"traceEvents": events, "displayTimeUnit": "ms",
	})
	if err != nil {
		return err
	}

	f, err := os.Create(filepath.Join(dir, workload+".jsonl"))
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err == nil {
			err = enc.Encode(s)
		}
	}
	for i := range traced {
		if err == nil {
			err = enc.Encode(map[string]interface{}{
				"repetition": i, "fs_write_loop": traced[i].FSWrite, "fs_restart_loop": traced[i].FSRead,
				"mem": traced[i].Mem, "registry": traced[i].Registry,
			})
		}
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

func writeJSONFile(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
