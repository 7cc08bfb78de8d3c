package rocpanda

import (
	"errors"
	"strings"
	"testing"
)

func TestValidateAcceptsCommonConfigs(t *testing.T) {
	cases := []Config{
		{NumServers: 1, ActiveBuffering: true},
		{NumServers: 2, ActiveBuffering: true, AsyncDrain: true, DrainWriters: 2, BufferBudgetBytes: 256 << 20},
		{NumServers: 2, ActiveBuffering: true, ParallelRead: true, ReadWorkers: 4, ReadBudgetBytes: 256 << 20},
		{NumServers: 2, ActiveBuffering: true, ReplicationFactor: 2},
		// R > NumServers wraps replica homes around; legal (copyNames).
		{NumServers: 1, ActiveBuffering: true, ReplicationFactor: 2},
		{NumServers: 1, ActiveBuffering: true, DeltaSnapshots: true, FullEvery: 4},
		{NumServers: 1}, // write-through ablation
	}
	for i, c := range cases {
		if err := c.Validate(); err != nil {
			t.Errorf("case %d: Validate() = %v, want nil", i, err)
		}
	}
}

func TestValidateAsyncDrainNeedsBuffering(t *testing.T) {
	c := Config{NumServers: 1, AsyncDrain: true}
	if err := c.Validate(); !errors.Is(err, ErrAsyncDrainNeedsBuffering) {
		t.Fatalf("Validate() = %v, want ErrAsyncDrainNeedsBuffering", err)
	}
}

func TestValidateDeltaNeedsFullEvery(t *testing.T) {
	c := Config{NumServers: 1, ActiveBuffering: true, DeltaSnapshots: true}
	if err := c.Validate(); !errors.Is(err, ErrDeltaNeedsFullEvery) {
		t.Fatalf("Validate() = %v, want ErrDeltaNeedsFullEvery", err)
	}
	c.FullEvery = -3
	if err := c.Validate(); !errors.Is(err, ErrDeltaNeedsFullEvery) {
		t.Fatalf("Validate() with FullEvery -3 = %v, want ErrDeltaNeedsFullEvery", err)
	}
}

func TestValidateRangeErrors(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		field string
	}{
		{"negative servers", Config{NumServers: -1}, "NumServers"},
		{"too many drain writers", Config{NumServers: 1, ActiveBuffering: true, AsyncDrain: true, DrainWriters: 9}, "DrainWriters"},
		{"negative drain writers", Config{NumServers: 1, ActiveBuffering: true, AsyncDrain: true, DrainWriters: -1}, "DrainWriters"},
		{"negative write budget", Config{NumServers: 1, ActiveBuffering: true, AsyncDrain: true, BufferBudgetBytes: -1}, "BufferBudgetBytes"},
		{"too many read workers", Config{NumServers: 1, ActiveBuffering: true, ParallelRead: true, ReadWorkers: 99}, "ReadWorkers"},
		{"negative read budget", Config{NumServers: 1, ActiveBuffering: true, ParallelRead: true, ReadBudgetBytes: -5}, "ReadBudgetBytes"},
		{"negative replication", Config{NumServers: 2, ActiveBuffering: true, ReplicationFactor: -1}, "ReplicationFactor"},
		{"negative retain", Config{NumServers: 1, ActiveBuffering: true, RetainGenerations: -1}, "RetainGenerations"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		var re *ConfigRangeError
		if !errors.As(err, &re) {
			t.Errorf("%s: Validate() = %v, want *ConfigRangeError", tc.name, err)
			continue
		}
		if re.Field != tc.field {
			t.Errorf("%s: error field %q, want %q", tc.name, re.Field, tc.field)
		}
		if !strings.Contains(re.Error(), "Config."+tc.field) {
			t.Errorf("%s: error message %q does not name the field", tc.name, re.Error())
		}
	}
}
