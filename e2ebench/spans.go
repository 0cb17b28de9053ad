package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"lcws"
	"lcws/internal/trace"
)

// span is one interval the benchmark spent inside a call into a layer.
// Spans of one job share its id; parent indexes the enclosing span.
type span struct {
	name       string
	id         uint64
	parent     int
	lane       int // display row: 0 main loop, 1 serve collector, 2 serve jobs
	start, end time.Duration
}

// recorder keeps the traced run's spans in memory until the run ends.
// A nil recorder records nothing, so untraced runs pay one nil check.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span on lane 0 and returns its index, or -1 when off.
func (r *recorder) begin(name string, id uint64, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, id: id, parent: parent, start: now, end: -1})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[i].end = now
	r.mu.Unlock()
}

// add records a finished span after the fact.
func (r *recorder) add(name string, id uint64, parent, lane int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, id: id, parent: parent, lane: lane,
		start: start.Sub(r.t0), end: end.Sub(r.t0)})
	return len(r.spans) - 1
}

// layer is a span name up to its first ':' (the part after it names
// the input or kernel).
func layer(name string) string {
	if i := strings.IndexByte(name, ':'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns, per layer, the summed self time (a span's duration
// minus its children's) and the span count.
func (r *recorder) selfTimes() (total map[string]time.Duration, count map[string]int) {
	total, count = map[string]time.Duration{}, map[string]int{}
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	for i, s := range r.spans {
		total[layer(s.name)] += self[i]
		count[layer(s.name)]++
	}
	return
}

// chromeDoc is the part of a Chrome trace file the merge rewrites.
type chromeDoc struct {
	TraceEvents     []map[string]any `json:"traceEvents"`
	DisplayTimeUnit string           `json:"displayTimeUnit"`
	OtherData       map[string]any   `json:"otherData,omitempty"`
}

// benchPid is the Chrome process row of the benchmark's own spans; the
// traced pools take rows 1..n.
const benchPid = 1000

// writeChrome merges the benchmark's spans with every traced pool's
// flight-recorder snapshot into one Chrome trace at path, then checks
// the file with the same validator cmd/tracecheck runs.
func (r *recorder) writeChrome(path string, pools []*pool, host map[string]any) error {
	doc := chromeDoc{DisplayTimeUnit: "ns", OtherData: map[string]any{"host": host}}
	for i, p := range pools {
		snap := p.s.TraceSnapshot()
		var buf bytes.Buffer
		if err := lcws.WriteChromeTrace(&buf, &snap); err != nil {
			return fmt.Errorf("export %s trace: %w", p.cfg.name, err)
		}
		var part chromeDoc
		if err := json.Unmarshal(buf.Bytes(), &part); err != nil {
			return fmt.Errorf("decode %s trace: %w", p.cfg.name, err)
		}
		// The pool's clock starts when it was created; shift it onto
		// the recorder's.
		shift := float64(p.created.Sub(r.t0)) / 1e3
		for _, e := range part.TraceEvents {
			e["pid"] = i + 1
			if ts, ok := e["ts"].(float64); ok {
				e["ts"] = ts + shift
			}
			if e["name"] == "process_name" {
				e["args"] = map[string]any{"name": fmt.Sprintf("lcws %s (P=%d)", p.cfg.name, p.cfg.workers)}
			}
		}
		doc.TraceEvents = append(doc.TraceEvents, part.TraceEvents...)
		doc.OtherData[p.cfg.name] = part.OtherData
	}
	doc.TraceEvents = append(doc.TraceEvents, map[string]any{
		"name": "process_name", "ph": "M", "pid": benchPid, "tid": 0,
		"args": map[string]any{"name": "e2ebench"},
	})
	r.mu.Lock()
	for _, s := range r.spans {
		doc.TraceEvents = append(doc.TraceEvents, map[string]any{
			"name": s.name, "ph": "X", "pid": benchPid, "tid": s.lane,
			"ts": float64(s.start) / 1e3, "dur": float64(s.end-s.start) / 1e3,
			"args": map[string]any{"id": s.id},
		})
	}
	r.mu.Unlock()

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(&doc); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	f, err = os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return trace.ValidateChrome(f)
}
