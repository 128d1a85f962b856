// Command neuroselect trains the clause-deletion policy selector and
// applies it to DIMACS instances. "train" writes a model file that carries
// the decision threshold calibrated on its training corpus; "predict" and
// "solve" decide at that threshold.
//
// Usage:
//
//	neuroselect train -out model.json [-scale quick|default]
//	neuroselect predict -model model.json file.cnf
//	neuroselect solve -model model.json [-conflicts N] file.cnf
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"neuroselect"
	"neuroselect/internal/dataset"
	"neuroselect/internal/metrics"
	"neuroselect/internal/portfolio"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "train":
		cmdTrain(os.Args[2:])
	case "predict":
		cmdPredict(os.Args[2:])
	case "solve":
		cmdSolve(os.Args[2:])
	case "eval":
		cmdEval(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: neuroselect {train|predict|solve|eval} [flags] [file.cnf]")
	os.Exit(2)
}

// cmdEval scores a trained model on a freshly generated labeled stratum,
// printing the Table 2 metrics.
func cmdEval(args []string) {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	modelPath := fs.String("model", "model.json", "trained model file")
	size := fs.Int("n", 20, "number of evaluation instances")
	seed := fs.Int64("seed", 20240623, "generation seed (distinct from training seeds)")
	budget := fs.Int64("conflicts", 40000, "labeling conflict budget")
	_ = fs.Parse(args)
	m, err := loadModel(*modelPath)
	if err != nil {
		fatal(err)
	}
	var cm metrics.Confusion
	for i := 0; i < *size; i++ {
		inst := dataset.Generate(*seed+int64(i)*13, 1.0)
		lab, err := dataset.Label(inst, *budget)
		if err != nil {
			fatal(err)
		}
		prob := m.Predict(inst.F)
		cm.Add(prob >= 0.5, lab.Label == 1)
		fmt.Printf("%-36s label=%d p=%.3f\n", inst.Name, lab.Label, prob)
	}
	fmt.Println(cm)
}

func cmdTrain(args []string) {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	out := fs.String("out", "model.json", "output model file")
	scale := fs.String("scale", "quick", "training scale: quick or default")
	_ = fs.Parse(args)

	m, err := neuroselect.TrainSelector(neuroselect.TrainerConfig{Scale: *scale, Log: os.Stderr})
	if err != nil {
		fatal(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := neuroselect.SaveModel(f, m); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "model written to %s (threshold %g)\n", *out, m.Threshold)
}

// loadModel restores a self-describing model file written by "train".
func loadModel(path string) (*neuroselect.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return neuroselect.LoadModel(f)
}

func readFormula(fs *flag.FlagSet) *neuroselect.Formula {
	var in io.Reader = os.Stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	f, err := neuroselect.ParseDIMACS(in)
	if err != nil {
		fatal(err)
	}
	return f
}

func cmdPredict(args []string) {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	modelPath := fs.String("model", "model.json", "trained model file")
	_ = fs.Parse(args)
	m, err := loadModel(*modelPath)
	if err != nil {
		fatal(err)
	}
	f := readFormula(fs)
	ch := portfolio.NewSelector(m).Choose(f)
	if ch.Fallback != "" {
		fmt.Printf("inference skipped (%s) -> policy %q\n", ch.Fallback, ch.Policy.Name())
		return
	}
	fmt.Printf("p(frequency wins) = %.4f -> policy %q (threshold %g)\n", ch.Prob, ch.Policy.Name(), m.Threshold)
}

func cmdSolve(args []string) {
	fs := flag.NewFlagSet("solve", flag.ExitOnError)
	modelPath := fs.String("model", "model.json", "trained model file")
	conflicts := fs.Int64("conflicts", 0, "conflict budget (0 = unlimited)")
	_ = fs.Parse(args)
	m, err := loadModel(*modelPath)
	if err != nil {
		fatal(err)
	}
	f := readFormula(fs)
	res, err := neuroselect.SolveAdaptive(f, m, neuroselect.SolveConfig{MaxConflicts: *conflicts})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("s %v\n", res.Status)
	fmt.Printf("c propagations=%d conflicts=%d\n", res.Stats.Propagations, res.Stats.Conflicts)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "neuroselect:", err)
	os.Exit(1)
}
