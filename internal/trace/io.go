package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file reads and writes traces in the Mahimahi-adjacent text format
// used by public ABR testbeds: one sample per line, either a bare
// bits-per-second value ("1250000") or a "timestamp bandwidth" pair
// ("12.0 1250000"), with '#' comments. Real FCC or HSDPA measurement files
// in that shape drop straight into the evaluation harness in place of the
// synthetic generators.

// Read parses a trace from r. Lines may be blank, comments ('#' prefix), a
// single bandwidth value in bits/s, or "timestamp bandwidth" pairs whose
// timestamps are ignored (replay is uniform 1-second bucketed). The name
// is taken from a "# trace: <name>" header when present, else from the
// fallback argument.
func Read(r io.Reader, fallbackName string) (*Trace, error) {
	t := &Trace{Name: fallbackName}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if name, ok := strings.CutPrefix(text, "# trace:"); ok {
				t.Name = strings.TrimSpace(name)
			}
			continue
		}
		fields := strings.Fields(text)
		var raw string
		switch len(fields) {
		case 1:
			raw = fields[0]
		case 2:
			raw = fields[1] // "timestamp bandwidth"
		default:
			return nil, fmt.Errorf("trace: line %d: want 1 or 2 fields, got %d", line, len(fields))
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if v <= 0 {
			// Outages in measurement files appear as zeros; clamp to the
			// generator floor so replay terminates.
			v = floorBps
		}
		t.BitsPerSecond = append(t.BitsPerSecond, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: reading: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
