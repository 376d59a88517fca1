// Package ignore_all exercises directive handling: the "all"
// wildcard and directives above multi-line expressions and statements. lint_test.go asserts the
// package is clean with directives and dirty without them.
package ignore_all

import "repro/internal/units"

func latency() units.Time { return 5 * units.Nanosecond }

func cost(n int) units.Time { return units.Time(n) * units.Nanosecond }

// blanket: "all" suppresses any analyzer on the line.
func blanket() {
	latency() //simlint:ignore all fixture proves blanket suppression
}

// multiExpr: the dropped call spans several lines; the directive on
// the line above covers the expression's anchor line.
func multiExpr() {
	//simlint:ignore cycleflow fixture: dropped cost spanning multiple lines
	cost(
		3,
	)
}

// named: a directive naming the analyzer suppresses it on the next line.
func named() {
	//simlint:ignore cycleflow fixture: the dropped cost is the point
	latency()
}

// mapSum: directive above a multi-line statement.
func mapSum(m map[string]float64) float64 {
	sum := 0.0
	//simlint:ignore determinism fixture: accumulation order does not matter here
	for _, v := range m {
		sum += v
	}
	return sum
}
