package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval recorded from the benchmark's side of a
// call: around a workload op, around a step of it that is visible from
// outside (open, first byte, drain), or around one repetition of a
// ladder rung. Times are nanoseconds since the recorder was made.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Op     int    `json:"op"`     // spans of one op share this
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spans keeps every span in memory until the run ends. A nil *spans
// records nothing, which is the untraced run.
type spans struct {
	t0   time.Time
	mu   sync.Mutex
	list []span     // guarded by mu
	ops  int        // guarded by mu
	coin *rand.Rand // guarded by mu
}

func newSpans(seed int64) *spans {
	return &spans{t0: time.Now(), list: make([]span, 0, 1<<16), coin: rand.New(rand.NewSource(seed))}
}

// sampled says whether the next op of a traced run's timed phase records
// its spans: a seeded coin flip, so that recording and non-recording ops
// interleave at random, share every state the box and the heap pass
// through, and cannot fall into step with the collector's cycle.
func (s *spans) sampled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.coin.Intn(2) == 1
}

// newOp allocates the identifier the spans of one op share.
func (s *spans) newOp() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ops++
	return s.ops
}

// add records a finished span and returns its id for use as a parent.
func (s *spans) add(name string, parent, op int, start, end time.Time) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id := len(s.list) + 1
	s.list = append(s.list, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(s.t0).Nanoseconds(), End: end.Sub(s.t0).Nanoseconds(),
	})
	return id
}

// selfTime is one row of the ladder's attribution: a rung's median
// time minus the medians of the rungs it is built on.
type selfTime struct {
	Rung     string   `json:"rung"`
	TotalMs  float64  `json:"total_ms"`
	Children []string `json:"children"`
	SelfMs   float64  `json:"self_ms"`
}

// traceFile is what a traced run leaves in out/trace-<workload>.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Env      map[string]string  `json:"env"`
	Counts   map[string]float64 `json:"counts"`
	Self     []selfTime         `json:"self_time"`
	Spans    []span             `json:"spans"`
}

func (s *spans) write(dir, workload string, env map[string]string, counts map[string]float64, self []selfTime) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	s.mu.Lock()
	doc := traceFile{Workload: workload, Env: env, Counts: counts, Self: self, Spans: s.list}
	s.mu.Unlock()
	b, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, b, 0o644)
}
