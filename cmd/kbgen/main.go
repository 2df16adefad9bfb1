// Command kbgen generates synthetic knowledge bases in the on-disk KB
// format.
//
//	kbgen -out DIR [-scale 0.02] [-seed 42] [-rules N] [-facts N] [-stats]
//
// The base corpus is the ReVerb-Sherlock-like dataset (see DESIGN.md);
// -rules grows the rule set the way the paper's S1 family does, -facts
// grows the fact set the way S2 does.
package main

import (
	"flag"
	"fmt"
	"os"

	"probkb/internal/kb"
	"probkb/internal/synth"
)

func main() {
	out := flag.String("out", "", "output KB directory (required unless -stats only)")
	scale := flag.Float64("scale", 0.02, "corpus scale relative to the paper (1.0 = 407K facts)")
	seed := flag.Int64("seed", 42, "generation seed")
	rules := flag.Int("rules", 0, "grow/shrink the rule set to N (S1 family; 0 = leave as generated)")
	facts := flag.Int("facts", 0, "grow the fact set to N (S2 family; 0 = leave as generated)")
	stats := flag.Bool("stats", false, "print the generated KB's statistics")
	flag.Parse()

	corpus, err := synth.ReVerbSherlock(*scale, *seed)
	if err != nil {
		die(err)
	}
	k := corpus.KB
	if *rules > 0 {
		if k, err = synth.S1(corpus, *rules, *seed+1); err != nil {
			die(err)
		}
	}
	if *facts > 0 {
		// S2 grows facts on the corpus; reattach any S1-grown rules.
		grown, err := synth.S2(corpus, *facts, *seed+2)
		if err != nil {
			die(err)
		}
		if *rules > 0 {
			grown.Rules = append(grown.Rules[:0], k.Rules...)
		}
		k = grown
	}

	if *stats {
		fmt.Print(k.Stats().String())
		fmt.Printf("(hidden true world: %d facts)\n", corpus.TrueWorldSize)
	}
	if *out == "" {
		if !*stats {
			die(fmt.Errorf("missing -out DIR"))
		}
		return
	}
	if err := k.SaveDir(*out); err != nil {
		die(err)
	}
	fmt.Printf("KB written to %s (%d facts, %d rules, %d constraints)\n",
		*out, k.NumFacts(), len(k.Rules), len(k.Constraints))
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "kbgen:", err)
	os.Exit(1)
}

var _ = kb.New // kb types flow through synth's public surface
