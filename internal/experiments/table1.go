package experiments

import (
	"fmt"
	"io"

	"repro/baseline"
	"repro/internal/fastq"
	"repro/internal/gzipx"
	"repro/internal/stats"

	pugz "repro"
)

// table1File is one synthetic dataset member.
type table1File struct {
	name  string
	level int
	gz    []byte
	raw   int
}

// buildTable1Corpus generates the synthetic stand-in for the ENA
// dataset: several FASTQ files per compression class. Sizes follow
// the paper's class mix loosely (most files at normal compression).
func buildTable1Corpus(c Config) ([]table1File, error) {
	type spec struct {
		reads int
		level int
		seed  int64
	}
	// Files must be large relative to the resolution delay (the paper's
	// files are GBs against delays of tens-to-hundreds of MB; here
	// ~20-30 MB against delays of a few MB), otherwise accesses late in
	// the file run out of data before a sequence-resolved block.
	specs := []spec{
		// lowest (gzip -1)
		{90000, 1, 101}, {70000, 1, 102},
		// normal (gzip -6) — the most common class in the wild
		{90000, 6, 103}, {70000, 6, 104}, {110000, 6, 105},
		// highest (gzip -9)
		{90000, 9, 106}, {70000, 9, 107},
	}
	var out []table1File
	for i, s := range specs {
		reads := int(float64(s.reads) * clampScale(c.Scale))
		data := fastq.Generate(fastq.GenOptions{Reads: reads, Seed: s.seed + c.Seed})
		gz, err := baseline.Compress(data, s.level)
		if err != nil {
			return nil, err
		}
		out = append(out, table1File{
			name:  fmt.Sprintf("synthetic_%02d_L%d.fastq.gz", i, s.level),
			level: s.level,
			gz:    gz,
			raw:   len(data),
		})
	}
	return out, nil
}

func clampScale(s float64) float64 {
	if s <= 0 {
		return 1
	}
	return s
}

// Table1Row aggregates one compression class.
type Table1Row struct {
	Class       gzipx.CompressionClass
	Files       int
	TotalSizeMB float64
	Delay       stats.Acc // MB decompressed until a sequence-resolved block
	Unambig     stats.Acc // % of unambiguous sequences after it
	NoResolved  int       // accesses with no sequence-resolved block at all
}

// RunTable1 regenerates Table I: random access at 1/4, 1/3, 1/2 and
// 2/3 of each file, measuring the delay to a sequence-resolved block
// and the fraction of unambiguous sequences after it.
func RunTable1(c Config, w io.Writer) error {
	c = c.WithDefaults()
	header(w, "Table I: random access to sequences, by compression level")
	files, err := buildTable1Corpus(c)
	if err != nil {
		return err
	}
	fractions := []struct {
		num, den int64
		label    string
	}{{1, 4, "1/4"}, {1, 3, "1/3"}, {1, 2, "1/2"}, {2, 3, "2/3"}}

	rows := map[gzipx.CompressionClass]*Table1Row{}
	for _, cls := range []gzipx.CompressionClass{gzipx.ClassLowest, gzipx.ClassNormal, gzipx.ClassHighest} {
		rows[cls] = &Table1Row{Class: cls}
	}

	for _, f := range files {
		cls, err := pugz.Classify(f.gz)
		if err != nil {
			return err
		}
		row := rows[cls]
		row.Files++
		row.TotalSizeMB += stats.MB(int64(len(f.gz)))
		for _, fr := range fractions {
			off := fr.num * int64(len(f.gz)) / fr.den
			res, err := pugz.RandomAccess(f.gz, off, pugz.RandomAccessOptions{})
			if err != nil {
				// Near the end of small files no non-final block may
				// remain; the paper's GB-scale files never hit this.
				fmt.Fprintf(w, "  note: %s @%s: %v\n", f.name, fr.label, err)
				continue
			}
			if res.FirstResolvedBlock < 0 {
				// The paper's normal/highest classes frequently show
				// this ("either no sequence-resolved block is found or
				// a variable fraction of sequences contain undetermined
				// characters") — their files are GBs against delays of
				// hundreds of MB; ours are tens of MB. Score such an
				// access by the unambiguous fraction over the whole
				// decoded suffix, which is what a consumer of the
				// random access would actually get.
				row.NoResolved++
				total, clean := 0, 0
				for _, s := range res.Records {
					total++
					if s.Unambiguous() {
						clean++
					}
				}
				if total > 0 {
					row.Unambig.Add(100 * float64(clean) / float64(total))
				}
				continue
			}
			row.Delay.Add(stats.MB(res.DelayBytes))
			if frac, ok := res.UnambiguousAfterResolved(); ok {
				row.Unambig.Add(frac * 100)
			}
		}
	}

	tbl := stats.NewTable("Compress. level", "Files", "Size (MB)",
		"Delay to seq-resolved block (MB)", "Unambiguous sequences (%)", "No resolved block")
	for _, cls := range []gzipx.CompressionClass{gzipx.ClassLowest, gzipx.ClassNormal, gzipx.ClassHighest} {
		r := rows[cls]
		tbl.AddRow(r.Class.String(), r.Files, fmt.Sprintf("%.1f", r.TotalSizeMB),
			r.Delay.MeanStd(3), r.Unambig.MeanStd(1), r.NoResolved)
	}
	fmt.Fprint(w, tbl.String())
	fmt.Fprintln(w, "\npaper (192.8 GB ENA corpus): lowest 52.4±55.8 MB delay, 100.0±0.0 %;")
	fmt.Fprintln(w, "normal 387.5±731.6 MB, 72.5±37.6 %; highest 1292.6±1531.9 MB, 36.8±45.2 %.")
	fmt.Fprintln(w, "expected shape: delay and ambiguity increase with compression level.")
	return nil
}
