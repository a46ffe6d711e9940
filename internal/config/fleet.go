package config

import (
	"fmt"
	"time"
)

// Fleet defaults. The lease TTL is deliberately generous relative to batch
// runtimes on loopback deployments; lower it for chattier failure detection.
const (
	DefaultFleetBatchSize   = 4
	DefaultFleetLeaseTTL    = 15 * time.Second
	DefaultFleetMaxAttempts = 5
)

// Fleet holds the coordinator-side scheduling parameters of the distributed
// sweep fabric: how a sweep's job list is cut into lease units and how
// worker loss is survived. None of these affect simulation results — batch
// boundaries, lease timing and retries only decide *where* a job runs, and
// jobs are deterministic — so Fleet stays out of the content-addressed job
// key.
type Fleet struct {
	// BatchSize is the number of consecutive jobs per lease unit; 0 means
	// DefaultFleetBatchSize. Smaller batches spread a sweep across more
	// workers and lose less work per expired lease; larger ones amortize
	// protocol round trips.
	BatchSize int
	// LeaseTTL is how long a worker may hold a batch without a heartbeat
	// before the coordinator reassigns it; 0 means DefaultFleetLeaseTTL.
	LeaseTTL time.Duration
	// MaxAttempts bounds how many times one batch may be leased before its
	// jobs are failed outright (a poison batch must not recirculate
	// forever); 0 means DefaultFleetMaxAttempts.
	MaxAttempts int
}

// WithDefaults fills zero fields with the defaults.
func (f Fleet) WithDefaults() Fleet {
	if f.BatchSize == 0 {
		f.BatchSize = DefaultFleetBatchSize
	}
	if f.LeaseTTL == 0 {
		f.LeaseTTL = DefaultFleetLeaseTTL
	}
	if f.MaxAttempts == 0 {
		f.MaxAttempts = DefaultFleetMaxAttempts
	}
	return f
}

// Validate rejects nonsensical fleet parameters (after WithDefaults).
func (f Fleet) Validate() error {
	if f.BatchSize < 1 {
		return fmt.Errorf("config: fleet batch size must be at least 1, got %d", f.BatchSize)
	}
	if f.LeaseTTL <= 0 {
		return fmt.Errorf("config: fleet lease TTL must be positive, got %s", f.LeaseTTL)
	}
	if f.MaxAttempts < 1 {
		return fmt.Errorf("config: fleet max attempts must be at least 1, got %d", f.MaxAttempts)
	}
	return nil
}

// HeartbeatEvery is the renewal cadence workers should use: a third of the
// lease TTL, so two consecutive heartbeats can be lost before a lease
// expires.
func (f Fleet) HeartbeatEvery() time.Duration {
	return f.LeaseTTL / 3
}
