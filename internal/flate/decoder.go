package flate

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/bitio"
	"repro/internal/huffman"
)

// Validation failures. blockfind treats any of these as "not a block
// start here"; tests assert the precise mode.
var (
	ErrBadBlockType      = errors.New("flate: invalid block type 3")
	ErrFinalBlock        = errors.New("flate: BFINAL set (validation forbids final blocks)")
	ErrStoredLenMismatch = errors.New("flate: stored block LEN != ^NLEN")
	ErrBadHuffmanTree    = errors.New("flate: invalid dynamic Huffman description")
	ErrBadLengthSymbol   = errors.New("flate: invalid literal/length symbol (286/287)")
	ErrBadDistanceSymbol = errors.New("flate: invalid distance symbol (30/31)")
	ErrNonASCII          = errors.New("flate: non-ASCII literal under ASCII validation")
	ErrBlockTooLarge     = errors.New("flate: block output exceeds maximum")
	ErrBlockTooSmall     = errors.New("flate: block output under minimum")
	ErrTruncated         = errors.New("flate: truncated stream")
	ErrDistanceTooFar    = errors.New("flate: back-reference before start of stream")
)

// Stop is a sentinel: a Visitor may return it to halt decoding cleanly.
// DecodeStream then returns nil.
var Stop = errors.New("flate: stop requested") //nolint:staticcheck // sentinel, not an error condition

// BlockEvent describes a block boundary.
type BlockEvent struct {
	Type     BlockType
	Final    bool
	StartBit int64 // absolute bit offset of the BFINAL bit
	// DataBit is the bit offset where token data begins (after the
	// header and, for dynamic blocks, the tree description).
	DataBit int64
}

// Visitor receives the decoded token stream. Methods may return an
// error to abort decoding; returning Stop aborts without error.
type Visitor interface {
	BlockStart(ev BlockEvent) error
	// Literal is one decoded literal byte.
	Literal(b byte) error
	// Match is an LZ77 back-reference: copy length bytes from dist
	// bytes behind the current output position. 3<=length<=258,
	// 1<=dist<=32768.
	Match(length, dist int) error
	// BlockEnd fires after the end-of-block symbol; nextBit is the bit
	// offset at which the next block (or the gzip trailer) begins.
	BlockEnd(nextBit int64) error
}

// StoredSink is a Visitor that takes a stored block's bytes in one
// call, exactly as if each had been a Literal (halts included). A
// validating decode still feeds them one Literal at a time.
type StoredSink interface {
	Visitor
	Stored(b []byte) error
}

// Options tunes validation. The zero value decodes permissively, as a
// normal gunzip would.
type Options struct {
	// Validate enables the stringent Appendix X-A checks used during
	// block detection: BFINAL must be 0, literals must satisfy
	// ValidByte, and block output size must be within
	// [MinBlockOutput, MaxBlockOutput].
	Validate bool
	// AllowFinal permits BFINAL=1 blocks even under Validate. The
	// confirmation pass of block detection sets this so syncing close
	// to the end of a stream is not rejected.
	AllowFinal bool
	// ValidByte, when non-nil under Validate, accepts a literal byte.
	// Nil defaults to printable ASCII plus \t \n \r.
	ValidByte func(byte) bool
	// MaxBlockOutput / MinBlockOutput bound the decompressed size of a
	// single block under Validate. Zero values default to the paper's
	// 4 MiB / 1 KiB.
	MaxBlockOutput int
	MinBlockOutput int
	// NoFast disables the multi-symbol fast token loop, forcing every
	// token through the scalar path. Output is bit-for-bit identical
	// either way; differential tests use this to pin the fast loop to
	// the scalar reference, and it doubles as a debugging kill switch.
	NoFast bool
}

const (
	defaultMaxBlockOutput = 4 << 20
	defaultMinBlockOutput = 1 << 10
)

// asciiOK is the default ValidByte table: printable ASCII, tab,
// newline, carriage return.
var asciiOK [256]bool

func init() {
	for b := 32; b < 127; b++ {
		asciiOK[b] = true
	}
	asciiOK['\t'] = true
	asciiOK['\n'] = true
	asciiOK['\r'] = true
}

// ASCIIByte reports whether b is acceptable in an ASCII text stream
// (the default stringent-validation predicate).
func ASCIIByte(b byte) bool { return asciiOK[b] }

// Decoder holds reusable scratch so repeated decoding (the block
// scanner probes millions of bit offsets) does not allocate. A Decoder
// is not safe for concurrent use; each goroutine owns one.
type Decoder struct {
	opts Options

	litLen  huffman.Decoder
	dist    huffman.Decoder
	codeLen huffman.Decoder

	lengths [maxLitLenSyms + maxDistSyms]uint8
	clLens  [numCodeLenSyms]uint8
	// hlit/hdist remember the current dynamic header's alphabet sizes
	// so the fast tables can be built from the same length slices.
	hlit, hdist int

	// Multi-symbol fast tables (built lazily, memoized on the tree
	// description) and the per-block context handed to FastTokenSinks.
	fastLit  huffman.LitLenFast
	fastDist huffman.DistFast
	fastCtx  FastCtx

	valid func(byte) bool
	// produced counts bytes emitted in the current block (validation).
	produced int
	// total counts bytes emitted across the stream, used to reject
	// back-references before the start when TrackStart is set.
	total      int64
	trackStart bool
	// storedBuf is reusable scratch for stored-block payloads.
	storedBuf []byte
}

// NewDecoder returns a Decoder with the given options.
func NewDecoder(opts Options) *Decoder {
	d := &Decoder{}
	d.reset(opts)
	return d
}

// reset reinitialises a (possibly recycled) Decoder for opts. The
// Huffman tables need no clearing: every block re-Inits them.
func (d *Decoder) reset(opts Options) {
	d.opts = opts
	d.valid = opts.ValidByte
	if d.valid == nil {
		d.valid = ASCIIByte
	}
	if d.opts.MaxBlockOutput == 0 {
		d.opts.MaxBlockOutput = defaultMaxBlockOutput
	}
	if d.opts.MinBlockOutput == 0 {
		d.opts.MinBlockOutput = defaultMinBlockOutput
	}
	d.produced = 0
	d.total = 0
	d.trackStart = false
	d.fastCtx = FastCtx{}
}

// decoderPool recycles Decoders. A Decoder carries several KiB of
// Huffman table scratch, and the parallel engine creates one per chunk
// per segment — pooling keeps steady-state streaming allocation-free.
var decoderPool = sync.Pool{
	New: func() any { return &Decoder{} },
}

// GetDecoder returns a pooled Decoder initialised with opts. Pair with
// PutDecoder when done; the Decoder must not be used afterwards.
func GetDecoder(opts Options) *Decoder {
	d := decoderPool.Get().(*Decoder)
	d.reset(opts)
	return d
}

// PutDecoder returns a Decoder to the pool.
func PutDecoder(d *Decoder) {
	if d != nil {
		decoderPool.Put(d)
	}
}

// SetTrackStart makes the decoder reject any back-reference that
// reaches before the first byte it produced. This is correct when
// decoding from the true start of a DEFLATE stream and is how a normal
// gunzip behaves; it must be off when decoding from a mid-stream block
// with an assumed 32 KiB context.
func (d *Decoder) SetTrackStart(on bool) {
	d.trackStart = on
	d.total = 0
}

// DecodeBlocks decodes blocks until the final block completes (final
// is true), the visitor requests Stop (final is false, err nil), or an
// error occurs.
func (d *Decoder) DecodeBlocks(r *bitio.Reader, v Visitor) (final bool, err error) {
	for {
		final, err := d.DecodeBlock(r, v)
		switch {
		case errors.Is(err, Stop):
			return false, nil
		case err != nil || final:
			return final, err
		}
	}
}

// DecodeStream is DecodeBlocks for callers that do not need to know
// whether the final block was reached.
func (d *Decoder) DecodeStream(r *bitio.Reader, v Visitor) error {
	_, err := d.DecodeBlocks(r, v)
	return err
}

// DecodeBlock decodes exactly one block, invoking the visitor for the
// boundary events and every token. It returns the BFINAL flag.
func (d *Decoder) DecodeBlock(r *bitio.Reader, v Visitor) (final bool, err error) {
	startBit := r.BitPos()
	hdr, err := r.Take(3)
	if err != nil {
		return false, ErrTruncated
	}
	isFinal := hdr&1 == 1
	btype := BlockType(hdr >> 1)

	if d.opts.Validate && isFinal && !d.opts.AllowFinal {
		return false, ErrFinalBlock
	}

	switch btype {
	case Stored:
		err = d.decodeStored(r, v, BlockEvent{Type: Stored, Final: isFinal, StartBit: startBit})
	case Fixed:
		// The fixed trees are constants; building their tables per block
		// used to dominate block *scanning* (every probe offset whose
		// three header bits read BTYPE=01 paid two table builds before
		// failing validation). They are built once and shared: Decode is
		// read-only over an initialised table, so concurrent scanners
		// can use them safely.
		lit, dist := fixedTables()
		err = d.decodeCompressedWith(r, v, BlockEvent{Type: Fixed, Final: isFinal, StartBit: startBit, DataBit: r.BitPos()}, lit, dist)
	case Dynamic:
		if err = d.readDynamicHeader(r); err != nil {
			return false, err
		}
		err = d.decodeCompressed(r, v, BlockEvent{Type: Dynamic, Final: isFinal, StartBit: startBit, DataBit: r.BitPos()})
	default:
		return false, ErrBadBlockType
	}
	if err != nil {
		return false, err
	}
	return isFinal, nil
}

func (d *Decoder) decodeStored(r *bitio.Reader, v Visitor, ev BlockEvent) error {
	r.AlignByte()
	lenBits, err := r.Take(16)
	if err != nil {
		return ErrTruncated
	}
	nlenBits, err := r.Take(16)
	if err != nil {
		return ErrTruncated
	}
	if lenBits != ^nlenBits&0xffff {
		return ErrStoredLenMismatch
	}
	n := int(lenBits)
	if d.opts.Validate && n > d.opts.MaxBlockOutput {
		return ErrBlockTooLarge
	}
	ev.DataBit = r.BitPos()
	if err := v.BlockStart(ev); err != nil {
		return err
	}
	if cap(d.storedBuf) < n {
		d.storedBuf = make([]byte, n)
	}
	buf := d.storedBuf[:n]
	if err := r.ReadBytes(buf); err != nil {
		return ErrTruncated
	}
	if bs, ok := v.(StoredSink); ok && !d.opts.Validate {
		if err := bs.Stored(buf); err != nil {
			return err
		}
		d.total += int64(n)
		return v.BlockEnd(r.BitPos())
	}
	for _, b := range buf {
		if d.opts.Validate && !d.valid(b) {
			return ErrNonASCII
		}
		if err := v.Literal(b); err != nil {
			return err
		}
	}
	d.total += int64(n)
	// Stored blocks are exempt from MinBlockOutput: the LEN/^NLEN pair
	// already self-certifies them, and small (even empty) stored
	// blocks occur legitimately as the sync-flush separators of
	// pigz-style and blocked gzip files — the "special case" the
	// paper's prototype left unimplemented (Section VII).
	return v.BlockEnd(r.BitPos())
}

// readDynamicHeader parses HLIT/HDIST/HCLEN and the two code-length-
// compressed trees, leaving d.litLen and d.dist initialised.
func (d *Decoder) readDynamicHeader(r *bitio.Reader) error {
	counts, err := r.Take(14)
	if err != nil {
		return ErrTruncated
	}
	hlit := int(counts&0x1f) + 257
	hdist := int(counts>>5&0x1f) + 1
	hclen := int(counts>>10&0xf) + 4
	d.hlit, d.hdist = hlit, hdist
	quiet := d.opts.Validate // probe mode: bare sentinels, no alloc
	if hlit > maxLitLenSyms {
		if quiet {
			return ErrBadHuffmanTree
		}
		// HLIT of 30 or 31 encodes 287/288 literal codes; 287+1=288 is
		// legal (symbol 287 exists in the fixed tree), >288 is not
		// encodable, but hlit can reach 286+? 5 bits -> 257..288.
		return fmt.Errorf("%w: HLIT=%d", ErrBadHuffmanTree, hlit)
	}

	clear(d.clLens[:])
	for i := 0; i < hclen; i++ {
		b, err := r.Take(3)
		if err != nil {
			return ErrTruncated
		}
		d.clLens[codeLenOrder[i]] = uint8(b)
	}
	if err := d.codeLen.Init(d.clLens[:], false); err != nil {
		if quiet {
			return ErrBadHuffmanTree
		}
		return fmt.Errorf("%w: code-length tree: %w", ErrBadHuffmanTree, err)
	}

	total := hlit + hdist
	lens := d.lengths[:total]
	clear(lens)
	for i := 0; i < total; {
		sym, err := d.codeLen.Decode(r)
		if err != nil {
			if quiet {
				return ErrBadHuffmanTree
			}
			return fmt.Errorf("%w: %w", ErrBadHuffmanTree, err)
		}
		switch {
		case sym < 16:
			lens[i] = uint8(sym)
			i++
		case sym == 16:
			if i == 0 {
				if quiet {
					return ErrBadHuffmanTree
				}
				return fmt.Errorf("%w: repeat with no previous length", ErrBadHuffmanTree)
			}
			rep, err := r.Take(2)
			if err != nil {
				return ErrTruncated
			}
			n := int(rep) + 3
			if i+n > total {
				if quiet {
					return ErrBadHuffmanTree
				}
				return fmt.Errorf("%w: repeat past end", ErrBadHuffmanTree)
			}
			prev := lens[i-1]
			for j := 0; j < n; j++ {
				lens[i] = prev
				i++
			}
		case sym == 17:
			rep, err := r.Take(3)
			if err != nil {
				return ErrTruncated
			}
			n := int(rep) + 3
			if i+n > total {
				if quiet {
					return ErrBadHuffmanTree
				}
				return fmt.Errorf("%w: zero-repeat past end", ErrBadHuffmanTree)
			}
			i += n
		case sym == 18:
			rep, err := r.Take(7)
			if err != nil {
				return ErrTruncated
			}
			n := int(rep) + 11
			if i+n > total {
				if quiet {
					return ErrBadHuffmanTree
				}
				return fmt.Errorf("%w: zero-repeat past end", ErrBadHuffmanTree)
			}
			i += n
		default:
			if quiet {
				return ErrBadHuffmanTree
			}
			return fmt.Errorf("%w: code-length symbol %d", ErrBadHuffmanTree, sym)
		}
	}
	if lens[endOfBlock] == 0 {
		if quiet {
			return ErrBadHuffmanTree
		}
		return fmt.Errorf("%w: no end-of-block code", ErrBadHuffmanTree)
	}
	if err := d.litLen.Init(lens[:hlit], false); err != nil {
		if quiet {
			return ErrBadHuffmanTree
		}
		return fmt.Errorf("%w: litlen tree: %w", ErrBadHuffmanTree, err)
	}
	if err := d.dist.Init(lens[hlit:total], true); err != nil {
		if quiet {
			return ErrBadHuffmanTree
		}
		return fmt.Errorf("%w: dist tree: %w", ErrBadHuffmanTree, err)
	}
	return nil
}

// decodeCompressed runs the token loop for a dynamic block using the
// decoder's own (just-Initialised) trees.
func (d *Decoder) decodeCompressed(r *bitio.Reader, v Visitor, ev BlockEvent) error {
	return d.decodeCompressedWith(r, v, ev, &d.litLen, &d.dist)
}

// fastTablesFor returns the multi-symbol tables for the current block,
// building (or memo-hitting) the dynamic ones from the header's code
// lengths. A nil return degrades to the scalar loop — e.g. for the
// degenerate no-distance-codes description.
func (d *Decoder) fastTablesFor(bt BlockType) (*huffman.LitLenFast, *huffman.DistFast) {
	if bt == Fixed {
		return fixedFastTables()
	}
	total := d.hlit + d.hdist
	if d.fastLit.Init(d.lengths[:d.hlit], lengthBase[:], lengthExtra[:]) != nil {
		return nil, nil
	}
	if d.fastDist.Init(d.lengths[d.hlit:total], distBase[:], distExtra[:]) != nil {
		return nil, nil
	}
	return &d.fastLit, &d.fastDist
}

// decodeCompressedWith runs the token loop for a fixed or dynamic
// block over explicit Huffman tables (fixed blocks pass the shared
// package-level constants).
func (d *Decoder) decodeCompressedWith(r *bitio.Reader, v Visitor, ev BlockEvent, litLen, dist *huffman.Decoder) error {
	if err := v.BlockStart(ev); err != nil {
		return err
	}
	d.produced = 0
	validate := d.opts.Validate

	// Fast path: a non-validating decode into a sink that exposes its
	// output window runs the multi-symbol loop over 64-bit refills.
	// The scalar loop below remains the reference: it finishes stream
	// tails (< 48 buffered bits), and re-decodes any token the fast
	// loop bailed on so anomalies keep their canonical errors.
	var fc *FastCtx
	if !validate && !d.opts.NoFast {
		if fs, ok := v.(FastTokenSink); ok {
			if flit, fdist := d.fastTablesFor(ev.Type); flit != nil {
				fc = &d.fastCtx
				*fc = FastCtx{R: r, Lit: flit, Dist: fdist, Track: d.trackStart, sink: fs}
			}
		}
	}

	for {
		if fc != nil {
			fc.Produced = d.total
			n, eob, err := fc.sink.FastTokens(fc)
			d.total += n
			if err != nil {
				return err
			}
			if eob {
				return v.BlockEnd(r.BitPos())
			}
			// Fall through: decode exactly one token the scalar way,
			// then hand control back to the fast loop.
		}
		sym, err := litLen.Decode(r)
		if err != nil {
			if validate {
				return ErrTruncated
			}
			return fmt.Errorf("%w: %w", ErrTruncated, err)
		}
		switch {
		case sym < 256:
			b := byte(sym)
			if validate && !d.valid(b) {
				return ErrNonASCII
			}
			d.produced++
			d.total++
			if validate && d.produced > d.opts.MaxBlockOutput {
				return ErrBlockTooLarge
			}
			if err := v.Literal(b); err != nil {
				return err
			}
		case sym == endOfBlock:
			if validate && d.produced < d.opts.MinBlockOutput {
				return ErrBlockTooSmall
			}
			return v.BlockEnd(r.BitPos())
		default:
			lsym := sym - 257
			if lsym >= len(lengthBase) {
				return ErrBadLengthSymbol
			}
			extra, err := r.Take(uint(lengthExtra[lsym]))
			if err != nil {
				return ErrTruncated
			}
			length := int(lengthBase[lsym]) + int(extra)

			dsym, err := dist.Decode(r)
			if err != nil {
				if validate {
					return ErrTruncated
				}
				return fmt.Errorf("%w: %w", ErrTruncated, err)
			}
			if dsym >= len(distBase) {
				return ErrBadDistanceSymbol
			}
			dextra, err := r.Take(uint(distExtra[dsym]))
			if err != nil {
				return ErrTruncated
			}
			dist := int(distBase[dsym]) + int(dextra)
			if d.trackStart && int64(dist) > d.total {
				return ErrDistanceTooFar
			}
			d.produced += length
			d.total += int64(length)
			if validate && d.produced > d.opts.MaxBlockOutput {
				return ErrBlockTooLarge
			}
			if err := v.Match(length, dist); err != nil {
				return err
			}
		}
	}
}
