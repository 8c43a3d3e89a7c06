// Command dumpiconv imports dumpi2ascii-style per-rank text dumps and
// writes them as a binary trace (codec v3) usable by cmd/mfact and
// cmd/traceinfo.
//
// Usage:
//
//	dumpiconv -app MyApp -machine edison -out my.htrc rank0.txt rank1.txt ...
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hpctradeoff/internal/trace"
)

func main() {
	app := flag.String("app", "imported", "application name for the trace metadata")
	class := flag.String("class", "X", "problem-class label")
	machName := flag.String("machine", "edison", "machine the dump was collected on")
	rpn := flag.Int("rpn", 0, "ranks per node at collection (0 = machine default)")
	out := flag.String("out", "imported.htrc", "output trace path")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: dumpiconv [-flags] rank0.txt rank1.txt ...")
		os.Exit(2)
	}

	var files []*os.File
	var readers []io.Reader
	for _, p := range flag.Args() {
		f, err := os.Open(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dumpiconv:", err)
			os.Exit(1)
		}
		files = append(files, f)
		readers = append(readers, f)
	}
	meta := trace.Meta{
		App: *app, Class: *class, Machine: *machName,
		NumRanks: len(readers), RanksPerNode: *rpn,
	}
	tr, err := trace.ReadDUMPIASCII(meta, readers)
	for _, f := range files {
		f.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dumpiconv:", err)
		os.Exit(1)
	}
	o, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dumpiconv:", err)
		os.Exit(1)
	}
	if err := trace.WriteColumnsV3(o, tr); err != nil {
		fmt.Fprintln(os.Stderr, "dumpiconv:", err)
		os.Exit(1)
	}
	if err := o.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "dumpiconv:", err)
		os.Exit(1)
	}
	fmt.Printf("%s: %d ranks, %d events, measured %v (%.1f%% communication)\n",
		*out, tr.Meta.NumRanks, tr.NumEvents(), trace.SourceMeasuredTotal(tr), 100*trace.SourceCommFraction(tr))
}
