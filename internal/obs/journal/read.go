package journal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Run is a journal read back into typed form: the raw event stream plus
// every payload decoded into its own slice, in emission order.
type Run struct {
	Header      *Header
	Iterations  []Iteration
	Profiles    []QueryProfile
	Motions     []Motion
	Repairs     []Repair
	Inference   *Inference // the last inference pass's component split
	Checkpoints []GibbsCheckpoint
	Faults      []SegmentFault
	Retries     []SegmentRetry
	End         *RunEnd
	Events      []Event
}

// FromEvents decodes an in-memory event stream into a Run. Unknown
// event types pass through in Events untouched (forward compatibility);
// a known type with a malformed payload is an error.
func FromEvents(events []Event) (*Run, error) {
	run := &Run{Events: events}
	for _, ev := range events {
		if err := run.decode(ev); err != nil {
			return nil, fmt.Errorf("journal: event %d (%s): %w", ev.Seq, ev.Type, err)
		}
	}
	return run, nil
}

func (run *Run) decode(ev Event) error {
	switch ev.Type {
	case TypeRunStart:
		var h Header
		if err := json.Unmarshal(ev.Data, &h); err != nil {
			return err
		}
		run.Header = &h
	case TypeIteration:
		var it Iteration
		if err := json.Unmarshal(ev.Data, &it); err != nil {
			return err
		}
		run.Iterations = append(run.Iterations, it)
	case TypeQueryProfile:
		var p QueryProfile
		if err := json.Unmarshal(ev.Data, &p); err != nil {
			return err
		}
		run.Profiles = append(run.Profiles, p)
	case TypeMotion:
		var m Motion
		if err := json.Unmarshal(ev.Data, &m); err != nil {
			return err
		}
		run.Motions = append(run.Motions, m)
	case TypeConstraintRepair:
		var r Repair
		if err := json.Unmarshal(ev.Data, &r); err != nil {
			return err
		}
		run.Repairs = append(run.Repairs, r)
	case TypeInference:
		var in Inference
		if err := json.Unmarshal(ev.Data, &in); err != nil {
			return err
		}
		run.Inference = &in
	case TypeGibbsCheckpoint:
		var c GibbsCheckpoint
		if err := json.Unmarshal(ev.Data, &c); err != nil {
			return err
		}
		run.Checkpoints = append(run.Checkpoints, c)
	case TypeSegmentFault:
		var f SegmentFault
		if err := json.Unmarshal(ev.Data, &f); err != nil {
			return err
		}
		run.Faults = append(run.Faults, f)
	case TypeSegmentRetry:
		var r SegmentRetry
		if err := json.Unmarshal(ev.Data, &r); err != nil {
			return err
		}
		run.Retries = append(run.Retries, r)
	case TypeRunEnd:
		var e RunEnd
		if err := json.Unmarshal(ev.Data, &e); err != nil {
			return err
		}
		run.End = &e
	}
	return nil
}

// Read parses a JSONL journal stream.
func Read(r io.Reader) (*Run, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var events []Event
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(text, &ev); err != nil {
			return nil, fmt.Errorf("journal: line %d: %w", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return FromEvents(events)
}

// ReadFile parses a JSONL journal file.
func ReadFile(path string) (*Run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	run, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return run, nil
}
