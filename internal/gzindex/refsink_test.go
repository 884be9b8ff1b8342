package gzindex

import (
	"errors"

	"repro/internal/bitio"
	"repro/internal/flate"
)

// refSink and refReadAt are the read path this package had before the
// span primitive: a scalar Visitor appending byte by byte behind a
// preloaded window, decoding from the governing checkpoint straight
// through any later ones until the request is covered. Kept here only
// as the reference the fast-sink parity sweep compares against.
type refSink struct {
	hist  []byte // window ++ produced output
	limit int
}

func (s *refSink) BlockStart(flate.BlockEvent) error { return nil }
func (s *refSink) Literal(b byte) error {
	s.hist = append(s.hist, b)
	if s.produced() >= s.limit {
		return flate.Stop
	}
	return nil
}
func (s *refSink) Match(length, dist int) error {
	n := len(s.hist)
	if dist > n {
		return flate.ErrDanglingRef
	}
	for i := 0; i < length; i++ {
		s.hist = append(s.hist, s.hist[n-dist+i])
	}
	if s.produced() >= s.limit {
		return flate.Stop
	}
	return nil
}
func (s *refSink) BlockEnd(int64) error { return nil }
func (s *refSink) produced() int        { return len(s.hist) - windowSize }

func refReadAt(ix *Index, payload, p []byte, off int64) (int, error) {
	cp, err := ix.FindCheckpoint(off)
	if err != nil {
		return 0, err
	}
	r, err := bitio.NewReaderAt(payload, cp.Bit)
	if err != nil {
		return 0, err
	}
	need := int(off-cp.Out) + len(p)
	sink := &refSink{hist: append(make([]byte, 0, windowSize+need+flate.MaxMatch), cp.Window...), limit: need}
	dec := flate.NewDecoder(flate.Options{NoFast: true})
	for sink.produced() < need {
		final, err := dec.DecodeBlock(r, sink)
		if errors.Is(err, flate.Stop) || (err == nil && final) {
			break
		}
		if err != nil {
			return 0, err
		}
	}
	out := sink.hist[windowSize:]
	skip := int(off - cp.Out)
	if skip >= len(out) {
		return 0, errors.New("gzindex: stream ended before requested offset")
	}
	return copy(p, out[skip:]), nil
}
