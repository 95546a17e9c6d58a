// Package lib exercises the reach analyzer: an exported func or method of
// an internal/ package needs a reference from a non-test file, from outside
// its own body, unless it is what makes its receiver satisfy an interface.
package lib

import "fmt"

// OnlyTests is called from lib_test.go and nowhere else.
func OnlyTests() {} // want `exported OnlyTests has no caller outside tests`

// UsedElsewhere is called from the user package.
func UsedElsewhere() {}

// UsedHere is called from this file.
func UsedHere() {}

func caller() { UsedHere() }

// Recursive refers to itself and nothing else does.
func Recursive(n int) int { // want `exported Recursive has no caller outside tests`
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// T satisfies fmt.Stringer (standard library) and user.Announcer (declared
// in a package analyzed after this one).
type T struct{}

func (T) String() string { return fmt.Sprint("T") }

func (*T) Announce(string) {}

// Orphan is a method no interface asks for; only the test calls it.
func (T) Orphan() {} // want `exported \(T\)\.Orphan has no caller outside tests`

// queue is unexported, its methods are not: heap-style receivers count too.
type queue []int

func (q queue) Len() int { return len(q) }

func (q queue) Peek() int { return q[0] } // want `exported \(queue\)\.Peek has no caller outside tests`

type lener interface{ Len() int }

// Allowed carries the escape hatch, which the driver counts.
//
//duet:allow reach fixture exercises the escape hatch
func Allowed() {}
