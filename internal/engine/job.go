// Package engine schedules independent simulation runs over a bounded
// worker pool with a content-addressed result cache.
//
// A Job names one deterministic simulation — a workload, machine, sampling
// regimen, total length, seed, and warm-up spec — and hashes to a canonical
// content address. Submitting a job returns a Ticket; identical jobs
// submitted concurrently are single-flighted (the second submitter waits
// for the first result), and finished results are cached in memory and,
// when a cache directory is configured, on disk as JSON, so repeated
// sweeps skip already-computed runs. The engine exposes a polling Stats
// snapshot and a streaming Event subscription for progress reporting.
//
// Because every job is deterministic in its inputs (see the concurrency
// contract in package sampling), results assembled in submission order are
// identical to a sequential run regardless of worker count.
package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"rsr/internal/sampling"
	"rsr/internal/warmup"
	"rsr/internal/workload"
)

// JobKind selects the simulation mode of a job.
type JobKind string

// Job kinds.
const (
	// JobSampled is a cluster-sampled run (sampling.RunSampled).
	JobSampled JobKind = "sampled"
	// JobFull is a complete detailed simulation (sampling.RunFull).
	JobFull JobKind = "full"
)

// Job describes one deterministic simulation run. Two jobs with equal
// identity fields produce byte-identical results, which is what makes
// content-addressed caching sound.
type Job struct {
	Kind     JobKind
	Workload string // a named workload (workload.ByName)
	Machine  sampling.MachineConfig
	Total    uint64
	// Sampled-only fields (zero for JobFull).
	Regimen sampling.Regimen
	Seed    int64
	Warmup  warmup.Spec
	// Timeout bounds this job's execution (0 = the engine default). It is
	// scheduling policy, not identity: it does not enter the hash. A job
	// that runs past its deadline fails with ErrDeadline.
	Timeout time.Duration `json:"Timeout,omitempty"`
	// MaxAttempts bounds execution attempts for this job, counting the
	// first (0 = the engine default). Like Timeout it is scheduling policy,
	// not identity.
	MaxAttempts int `json:"MaxAttempts,omitempty"`
}

// jobIdentity is the canonical hashed form of a Job. HashVersion must be
// bumped whenever the identity layout or the semantics of a simulation
// change incompatibly, invalidating old cache entries.
type jobIdentity struct {
	HashVersion int
	Kind        JobKind
	Workload    string
	Machine     sampling.MachineConfig
	Total       uint64
	Regimen     sampling.Regimen
	Seed        int64
	Warmup      warmup.Spec
}

const hashVersion = 1

// Hash returns the job's content address: hex SHA-256 of the canonical
// JSON encoding of its identity fields (Timeout excluded).
func (j Job) Hash() string {
	id := jobIdentity{
		HashVersion: hashVersion,
		Kind:        j.Kind,
		Workload:    j.Workload,
		Machine:     j.Machine,
		Total:       j.Total,
		Regimen:     j.Regimen,
		Seed:        j.Seed,
		Warmup:      j.Warmup,
	}
	b, err := json.Marshal(id)
	if err != nil {
		// Identity fields are plain data; Marshal cannot fail on them.
		panic(fmt.Sprintf("engine: job hash: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Label renders a short human-readable description of the job.
func (j Job) Label() string {
	if j.Kind == JobFull {
		return fmt.Sprintf("full/%s", j.Workload)
	}
	return fmt.Sprintf("%s/%s", j.Workload, j.Warmup.Label())
}

// Validate checks that the job is runnable.
func (j Job) Validate() error {
	if j.Kind != JobSampled && j.Kind != JobFull {
		return fmt.Errorf("engine: unknown job kind %q", j.Kind)
	}
	if j.Total == 0 {
		return errors.New("engine: job total must be positive")
	}
	if _, err := workload.ByName(j.Workload); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	if j.Kind == JobSampled {
		if err := j.Regimen.Validate(j.Total); err != nil {
			return err
		}
	}
	return nil
}
