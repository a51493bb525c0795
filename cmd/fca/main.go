// Command fca is a standalone formal-concept-analysis tool: it builds the
// concept lattice of a context and prints it as text or DOT. Contexts come
// from a Burmeister .cxt file (the interchange format of FCA tools) or
// from a trace file plus a reference FA (the paper's traces × executed-
// transitions context of Section 3.2).
//
// Usage:
//
//	fca -cxt animals.cxt [-dot]
//	fca -traces scenarios.txt -fa spec.fa [-dot]
//	fca -traces scenarios.txt -pattern "(a()|b())*" [-dot]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cliflag"
	"repro/internal/concept"
	"repro/internal/fa"
	"repro/internal/trace"
)

func main() {
	var (
		cxtPath    = flag.String("cxt", "", "Burmeister context file")
		tracesPath = flag.String("traces", "", "trace file (with -fa or -pattern)")
		faPath     = flag.String("fa", "", "reference FA file")
		pattern    = flag.String("pattern", "", "reference FA as a regular expression over events")
		dot        = flag.Bool("dot", false, "emit the lattice in DOT format")
		emitCxt    = flag.String("emitcxt", "", "also write the context in Burmeister format here")
	)
	flag.Parse()
	// Each input mode reads only its own flags.
	switch {
	case *cxtPath != "":
		cliflag.Check(flag.CommandLine, "-cxt", "traces", "fa", "pattern")
	case *pattern != "":
		cliflag.Check(flag.CommandLine, "-pattern", "fa")
	default:
		cliflag.Check(flag.CommandLine, "")
	}

	var (
		ctx  *concept.Context
		name string
		err  error
	)
	switch {
	case *cxtPath != "":
		f, ferr := os.Open(*cxtPath)
		die(ferr)
		ctx, name, err = concept.ReadContext(f)
		die(f.Close())
		die(err)
		if name == "" {
			name = *cxtPath
		}
	case *tracesPath != "":
		tf, ferr := os.Open(*tracesPath)
		die(ferr)
		set, terr := trace.Read(tf)
		die(tf.Close())
		die(terr)
		var ref *fa.FA
		switch {
		case *pattern != "":
			ref, err = fa.Compile("pattern", *pattern)
			die(err)
		case *faPath != "":
			ff, ferr := os.Open(*faPath)
			die(ferr)
			ref, err = fa.Read(ff)
			die(ff.Close())
			die(err)
		default:
			ref = fa.FromTraces(set.Alphabet())
		}
		ctx, err = concept.TraceContext(set.Representatives(), ref)
		die(err)
		name = *tracesPath
	default:
		flag.Usage()
		os.Exit(2)
	}

	if *emitCxt != "" {
		out, ferr := os.Create(*emitCxt)
		die(ferr)
		err = concept.WriteContext(out, ctx, name)
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		die(err)
	}

	lattice := concept.Build(ctx)
	if *dot {
		die(lattice.WriteDot(os.Stdout, name))
		return
	}
	fmt.Printf("context %q: %d objects x %d attributes\n", name, ctx.NumObjects(), ctx.NumAttributes())
	fmt.Print(lattice)
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "fca:", err)
		os.Exit(1)
	}
}
