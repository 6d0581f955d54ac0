package trace

import "fmt"

// FileTrace replays a parsed request list as a Generator, looping at the
// end so it can drive runs longer than the trace.
type FileTrace struct {
	name string
	reqs []Request
	pos  int
	// Loops counts how many times the trace wrapped.
	Loops int
}

// NewFileTrace wraps parsed requests.
func NewFileTrace(name string, reqs []Request) (*FileTrace, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("trace: empty request list")
	}
	return &FileTrace{name: name, reqs: reqs}, nil
}

// Name implements Generator.
func (f *FileTrace) Name() string { return f.name }

// Next implements Generator.
func (f *FileTrace) Next() Request {
	r := f.reqs[f.pos]
	f.pos++
	if f.pos == len(f.reqs) {
		f.pos = 0
		f.Loops++
	}
	return r
}
