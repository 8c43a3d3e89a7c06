// Package hpctradeoff is a from-scratch Go reproduction of Tong, Yuan,
// Pakin & Lang, "Performance and Accuracy Trade-offs of HPC Application
// Modeling and Simulation" (IPDPS 2018).
//
// The implementation lives in internal/ (see DESIGN.md for the system
// inventory); the seven runnable tools are under cmd/: tradeoff (the
// study), tracegen, traceinfo and dumpiconv (trace files), mfact (one
// trace through the model, any scheme, or calibration), diffreport
// (reports over saved results, the §VI prediction study among them)
// and chaos (the fault soak). The top-level bench_test.go regenerates
// every table and figure of the paper's evaluation on a reduced suite.
package hpctradeoff
