package rocpanda

import (
	"errors"
	"fmt"

	"genxio/internal/snapshot"
)

// Sentinel errors for incompatible Config combinations; callers match them
// with errors.Is.
var (
	// ErrAsyncDrainNeedsBuffering rejects AsyncDrain without
	// ActiveBuffering: the background writer pool drains the active
	// buffer, so without buffering there is nothing for it to drain.
	ErrAsyncDrainNeedsBuffering = errors.New("rocpanda: AsyncDrain requires ActiveBuffering")
	// ErrDeltaNeedsFullEvery rejects DeltaSnapshots with FullEvery < 1 at
	// the command line: an unbounded chain anchors every delta of a long
	// run on one full generation, which is almost never what an operator
	// wants (the library itself still accepts it for ablations).
	ErrDeltaNeedsFullEvery = errors.New("rocpanda: DeltaSnapshots requires FullEvery >= 1 (every delta chain needs a periodic full snapshot)")
)

// ConfigRangeError reports a Config field outside its accepted range.
type ConfigRangeError struct {
	Field    string
	Value    int64
	Min, Max int64 // Max < 0 means unbounded above
}

func (e *ConfigRangeError) Error() string {
	if e.Max < 0 {
		return fmt.Sprintf("rocpanda: Config.%s = %d out of range (want >= %d)", e.Field, e.Value, e.Min)
	}
	return fmt.Sprintf("rocpanda: Config.%s = %d out of range (want %d..%d)", e.Field, e.Value, e.Min, e.Max)
}

// Validate rejects incompatible or out-of-range Config combinations with
// typed errors, instead of the silent clamping Init applies. The
// command-line front end (cmd/genx) calls it so a bad flag fails with a
// message; the library entry points keep clamping, so programmatic
// ablations stay free to probe degenerate settings. Checks that need the
// world size (server count vs. ranks) stay in Init.
func (c *Config) Validate() error {
	if c.NumServers < 0 {
		return &ConfigRangeError{Field: "NumServers", Value: int64(c.NumServers), Min: 0, Max: -1}
	}
	if c.AsyncDrain && !c.ActiveBuffering {
		return ErrAsyncDrainNeedsBuffering
	}
	if c.DrainWriters < 0 || c.DrainWriters > snapshot.MaxWorkers {
		return &ConfigRangeError{Field: "DrainWriters", Value: int64(c.DrainWriters), Min: 0, Max: snapshot.MaxWorkers}
	}
	if c.BufferBudgetBytes < 0 {
		return &ConfigRangeError{Field: "BufferBudgetBytes", Value: c.BufferBudgetBytes, Min: 0, Max: -1}
	}
	if c.ReadWorkers < 0 || c.ReadWorkers > snapshot.MaxWorkers {
		return &ConfigRangeError{Field: "ReadWorkers", Value: int64(c.ReadWorkers), Min: 0, Max: snapshot.MaxWorkers}
	}
	if c.ReadBudgetBytes < 0 {
		return &ConfigRangeError{Field: "ReadBudgetBytes", Value: c.ReadBudgetBytes, Min: 0, Max: -1}
	}
	// R > NumServers is deliberately legal: replica homes wrap around
	// (copyNames), so extra copies land on an already-used home under a
	// distinct file name — they still survive file loss, just not the loss
	// of that server's whole file set.
	if c.ReplicationFactor < 0 {
		return &ConfigRangeError{Field: "ReplicationFactor", Value: int64(c.ReplicationFactor), Min: 0, Max: -1}
	}
	if c.DeltaSnapshots && c.FullEvery < 1 {
		return ErrDeltaNeedsFullEvery
	}
	if c.RetainGenerations < 0 {
		return &ConfigRangeError{Field: "RetainGenerations", Value: int64(c.RetainGenerations), Min: 0, Max: -1}
	}
	return nil
}
