package exp

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"

	"yukta/internal/core"
	"yukta/internal/obs"
)

// traceCapacity sizes a recorder to hold every interval of a run bounded by
// opt (using core.Run's defaults for unset fields), so sweep traces never
// drop records.
func traceCapacity(opt core.RunOptions) int {
	maxTime := opt.MaxTime
	if maxTime <= 0 {
		maxTime = core.DefaultMaxTime
	}
	interval := opt.Interval
	if interval <= 0 {
		interval = core.DefaultInterval
	}
	return int(maxTime/interval) + 1
}

// cleanName maps a scheme or app name to a filename-safe stem fragment.
func cleanName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
}

// writeTrace persists one run's recorder into the context's TraceDir as
// <stem>.jsonl (the schema-validatable decision log) and
// <stem>.timeline.txt (the terminal rendering).
func (c *Context) writeTrace(stem string, rec *obs.Recorder) error {
	if err := os.MkdirAll(c.TraceDir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(c.TraceDir, stem+".jsonl"), buf.Bytes(), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(c.TraceDir, stem+".timeline.txt"),
		[]byte(rec.Timeline(100)), 0o644)
}

// writeFleetTrace persists one fleet run's coordination-layer recorder into
// the context's TraceDir as <stem>.fleet.jsonl. The .fleet.jsonl suffix is
// the dispatch key between the per-board and fleet schemas for validation
// tooling (obs.ValidateFleetJSONL vs obs.ValidateJSONL).
func (c *Context) writeFleetTrace(stem string, rec *obs.FleetRecorder) error {
	if err := os.MkdirAll(c.TraceDir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(c.TraceDir, stem+".fleet.jsonl"), buf.Bytes(), 0o644)
}
