package pugz

import (
	"fmt"
	"hash/crc32"

	"repro/internal/core"
	"repro/internal/gzipx"
)

// memberWalk is the one gzip member loop. Decompress (and so
// GunzipSequential) walks a resident file with it, Reader a streamed
// source: for each member it reads the header, runs the chunk scheduler
// within the extent the header declares, reads the trailer and, with
// verify, checks CRC-32 and ISIZE against a CRC fed chunk by chunk.
type memberWalk struct {
	p        *core.Pipeline
	verify   bool
	emit     func([]byte) error  // the Reader's chunk hand-off; nil on a resident pipeline
	cs       cursorState         // the first member's resume point and checkpoints; the skip bound
	onMember func(*core.Metrics) // runs once a member's trailer passed its checks
}

// header reads the next member's header and returns its declared
// payload length (0 when unknown). more is false on error and at a
// clean end of the stream: no byte where a header would start.
func (w *memberWalk) header() (extent int64, more bool, err error) {
	win := w.p.Window()
	if err := win.Fill(1); err != nil || win.Len() == 0 {
		return 0, false, err
	}
	m, err := gzipx.ReadHeader(win)
	return int64(m.PayloadLen()), err == nil, err
}

// walk decodes members in order until the stream ends or one fails,
// starting with a member whose header is read already (or, with
// cs.resume, at a point inside the first member): extent is its
// declared payload length. The trailer starts at the byte after each
// member's final block.
func (w *memberWalk) walk(extent int64) error {
	win := w.p.Window()
	var outBase int64 // stream offset of the member's first output byte
	for more := true; more; {
		res, crc, isize, err := w.decode(extent, outBase)
		if err != nil {
			return err
		}
		win.DiscardTo((res.EndBit + 7) / 8)
		wantCRC, wantISize, err := gzipx.ReadTrailer(win)
		switch {
		case err != nil:
			return err
		case w.verify && crc != wantCRC:
			return fmt.Errorf("%w: CRC-32", ErrChecksum)
		case w.verify && isize != wantISize:
			return fmt.Errorf("%w: ISIZE", ErrChecksum)
		}
		w.onMember(res.Metrics)
		outBase += res.Out
		if extent, more, err = w.header(); err != nil {
			return err
		}
	}
	return nil
}

// decode runs one member's payload on the scheduler, returning the
// CRC-32 and size of its output when verifying.
func (w *memberWalk) decode(extent, outBase int64) (res core.MemberResult, crc, isize uint32, err error) {
	mr := core.MemberRun{Emit: w.emit, Extent: extent}
	if w.verify {
		mr.Emit = func(b []byte) error {
			// Before emit: the Reader's consumer owns b from there on.
			crc = crc32.Update(crc, crc32.IEEETable, b)
			isize += uint32(len(b))
			if w.emit == nil {
				return nil
			}
			return w.emit(b)
		}
	}
	if rp := w.cs.resume; rp != nil {
		mr.StartBit, mr.Context, mr.OutBase = rp.bit, rp.window, rp.out
	}
	if on := w.cs.onCheckpoint; on != nil && w.cs.spacing > 0 {
		mr.CheckpointSpacing = w.cs.spacing
		mr.OnCheckpoint = func(cp core.Checkpoint) error {
			on(cp)
			return nil
		}
	}
	if w.cs.skipTo > outBase {
		mr.SkipTo = w.cs.skipTo - outBase
	}
	res, err = w.p.RunMemberOpts(mr)
	// Checkpoints carry first-member offsets only, matching the Index
	// surface; later members decode without the side-channel.
	w.cs.resume, w.cs.onCheckpoint = nil, nil
	return res, crc, isize, err
}
