package pugz

import (
	"fmt"

	"repro/internal/fastq"
	"repro/internal/framing"
	"repro/internal/tracked"
)

// Undetermined is the byte standing in for any unresolved character in
// random-access output ('?' throughout the paper's figures).
const Undetermined = tracked.UndeterminedByte

// Defaults for the random-access record machinery, shared by the API,
// the CLIs and godoc so they cannot drift.
const (
	// DefaultMinSeqLen is the default minimum extracted-sequence
	// length of the FASTQ framing (the paper's "minimum read length"
	// filter).
	DefaultMinSeqLen = fastq.DefaultMinLen
	// DefaultResolvedThreshold is the default number of trustworthy
	// records a block must yield to count as record-resolved
	// (Section VI-B).
	DefaultResolvedThreshold = framing.DefaultResolvedThreshold
)

// Framer is a pluggable record framing: how to find a record boundary
// inside partially resolved text, how to split resolved text into
// records, and when a decoded block counts as record-resolved. The
// implementations shipped with the package are FASTQFraming (the
// paper's DNA grammar), NewlineFraming (logs, JSONL), WARCFraming
// (web archives) and LengthPrefixedFraming (binary records); see each
// for whether index-free access is viable under it.
type Framer = framing.Framer

// FramedRecord is a record located by a Framer within scanned text
// (offsets relative to that text).
type FramedRecord = framing.Record

// The shipped framings. Each is a value type safe for concurrent use.
type (
	// FASTQFraming extracts DNA-like segments with the Appendix X-B
	// grammar — the default framing, byte-for-byte identical to the
	// original fqgz pipeline.
	FASTQFraming = framing.FASTQ
	// NewlineFraming frames newline-delimited records (log lines;
	// JSONL with ValidateJSON set). Records overlapping undetermined
	// bytes are never emitted.
	NewlineFraming = framing.Newline
	// WARCFraming frames WARC/1.x web-archive records.
	WARCFraming = framing.WARC
	// LengthPrefixedFraming frames binary length-prefixed records
	// (index-free access requires its Magic marker).
	LengthPrefixedFraming = framing.LengthPrefixed
)

// RandomAccessOptions tunes RandomAccess.
type RandomAccessOptions struct {
	// MaxOutput bounds how many decompressed bytes to produce
	// (0 = decode to the end of the member).
	MaxOutput int64
	// Framer selects the record framing applied to the partially
	// resolved text. nil selects FASTQFraming{} — the original DNA
	// pipeline, with sequences of at least DefaultMinSeqLen bases.
	Framer Framer
	// ResolvedThreshold is the number of trustworthy records a block
	// needs to count as record-resolved (0 selects
	// DefaultResolvedThreshold).
	ResolvedThreshold int
}

// Record is one record recovered from random-access output (or yielded
// by a File.Records scan).
type Record struct {
	// Offset is the byte position within the scanned text where the
	// record begins — for RandomAccessResult, within Text; for a
	// RecordScanner, the absolute decompressed offset.
	Offset int64
	// Data is the record's content (framing overhead excluded). It
	// aliases the scanned text; it is valid until that text is.
	Data []byte
	// Undetermined counts unresolved ('?') bytes within Data. Only the
	// FASTQ framing emits records with Undetermined > 0.
	Undetermined int
}

// Unambiguous reports whether the record is fully determined.
func (r Record) Unambiguous() bool { return r.Undetermined == 0 }

// RandomAccessResult is the outcome of decompressing from an arbitrary
// location with an undetermined context.
type RandomAccessResult struct {
	// BlockBit is the payload bit offset of the block where decoding
	// started (the first confirmed block at/after the requested
	// offset).
	BlockBit int64
	// Text is the decompressed suffix with unresolved characters shown
	// as Undetermined ('?').
	Text []byte
	// Blocks are the decoded block boundaries (offsets into Text).
	Blocks []Block
	// Records holds every record the framing recovered from Text, in
	// order (under the default FASTQ framing, the DNA-like segments).
	Records []Record
	// FirstResolvedBlock is the index into Blocks of the first
	// record-resolved block, or -1 if none was found. DelayBytes is
	// the number of decompressed bytes before it ("delay to
	// sequence-resolved block" in Table I).
	FirstResolvedBlock int
	DelayBytes         int64
}

// UnambiguousAfterResolved returns the Table I statistic: among
// records that begin at or after the first record-resolved block, the
// fraction without undetermined characters. ok is false when no
// record-resolved block exists or no records follow it.
func (r *RandomAccessResult) UnambiguousAfterResolved() (frac float64, ok bool) {
	if r.FirstResolvedBlock < 0 {
		return 0, false
	}
	start := r.Blocks[r.FirstResolvedBlock].OutStart
	total, clean := 0, 0
	for _, rec := range r.Records {
		if rec.Offset < start {
			continue
		}
		total++
		if rec.Unambiguous() {
			clean++
		}
	}
	if total == 0 {
		return 0, false
	}
	return float64(clean) / float64(total), true
}

// RandomAccess decompresses a gzip-compressed file starting at an
// arbitrary compressed byte offset, using a fully undetermined 32 KiB
// context, and recovers records from the partially resolved output
// (the paper's fqgz prototype — Sections IV, VI-A, VI-B and Appendix
// X-B — generalised over pluggable record framings).
func RandomAccess(gz []byte, fromByte int64, o RandomAccessOptions) (*RandomAccessResult, error) {
	f, err := NewFileBytes(gz, FileOptions{})
	if err != nil {
		return nil, err
	}
	return f.RandomAccessAt(fromByte, o)
}

// framer resolves the options' framing (nil selects the original
// FASTQ pipeline).
func (o RandomAccessOptions) framer() Framer {
	if o.Framer != nil {
		return o.Framer
	}
	return FASTQFraming{}
}

// RandomAccessAt is RandomAccess over the File's byte source: the
// paper's index-free access path, reading only the compressed extent
// it decodes (plus geometric growth slack for non-slice sources)
// rather than the whole file. It touches only the File's immutable
// snapshot through a private window, so it is safe for concurrent use
// alongside any other File method.
func (f *File) RandomAccessAt(fromByte int64, o RandomAccessOptions) (*RandomAccessResult, error) {
	fr := o.framer()
	if o.ResolvedThreshold == 0 {
		o.ResolvedThreshold = DefaultResolvedThreshold
	}

	// One window serves both halves of the access: the brute-force
	// block sync and the undetermined-context decode that follows. Its
	// initial extent is sized to the requested output (text compresses
	// to no more than its own size) so a bounded read loads a bounded
	// compressed extent; the decode grows it when it falls short.
	from := fromByte
	if from < f.hdrLen {
		from = f.hdrLen
	}
	if from > f.size {
		return nil, fmt.Errorf("pugz: random access at byte %d: %w", fromByte, ErrNotFound)
	}
	initial := o.MaxOutput + minWindowLoad
	w, err := f.openWindow(from, initial)
	if err != nil {
		return nil, err
	}
	relBit, err := findInWindow(w, 0)
	if err != nil {
		return nil, fmt.Errorf("pugz: random access at byte %d: %w", fromByte, err)
	}
	rebase := (w.base - f.hdrLen) * 8
	bit := rebase + relBit

	var res *tracked.Result
	for {
		res, err = tracked.DecodeFrom(w.data, relBit, tracked.DecodeOptions{
			MaxOutput:   clampInt(o.MaxOutput),
			RecordSpans: true,
		})
		if err == nil {
			break
		}
		if grown, gerr := w.grow(); gerr != nil {
			return nil, gerr
		} else if grown {
			continue
		}
		return nil, err
	}

	out := &RandomAccessResult{
		BlockBit:           bit,
		Text:               tracked.Narrow(res.Out),
		FirstResolvedBlock: -1,
		DelayBytes:         -1,
	}
	res.Release()
	for _, s := range res.Spans {
		out.Blocks = append(out.Blocks, Block{
			StartBit: rebase + s.Event.StartBit,
			EndBit:   rebase + s.EndBit,
			Type:     s.Event.Type.String(),
			Final:    s.Event.Final,
			OutStart: s.OutStart,
			OutEnd:   s.OutEnd,
		})
	}

	// The end of the decoded text is a true end of stream only when
	// the member's final block was reached and nothing but its trailer
	// fits behind it (a shorter remainder cannot hold another member):
	// then a framing may accept an unterminated final record. Framings
	// otherwise treat the cut as unresolved — a record straddling into
	// the next member or past MaxOutput is not a record.
	endByte := w.base + (res.EndBit+7)/8
	atEnd := res.Final && f.size-endByte-gzipTrailerLen < gzipMinMemberLen

	for _, rec := range fr.Records(out.Text, false, atEnd) {
		out.Records = append(out.Records, Record{
			Offset:       int64(rec.Start),
			Data:         rec.Bytes(out.Text),
			Undetermined: rec.Holes,
		})
	}
	for i, b := range out.Blocks {
		end := b.OutEnd
		if end > int64(len(out.Text)) {
			end = int64(len(out.Text))
		}
		if b.OutStart >= end {
			continue
		}
		if fr.Resolved(out.Text[b.OutStart:end], o.ResolvedThreshold) {
			out.FirstResolvedBlock = i
			out.DelayBytes = b.OutStart
			break
		}
	}
	return out, nil
}

// gzip framing sizes consulted when judging whether decoded text ends
// at a true end of stream: an 8-byte member trailer, and the smallest
// possible following member (10-byte header + 2-byte empty stored
// block + trailer).
const (
	gzipTrailerLen   = 8
	gzipMinMemberLen = 20
)

// clampInt narrows an int64 byte bound to the int the tracked decoder
// takes, saturating instead of wrapping.
func clampInt(v int64) int {
	const maxInt = int64(^uint(0) >> 1)
	if v > maxInt {
		return int(maxInt)
	}
	if v < 0 {
		return 0
	}
	return int(v)
}
