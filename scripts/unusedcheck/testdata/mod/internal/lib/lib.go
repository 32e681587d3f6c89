// Package lib holds one export of each kind the checker tells apart.
package lib

import "fmt"

// Shape is an interface of the module.
type Shape interface{ Area() float64 }

// Square implements Shape and fmt.Stringer.
type Square struct{ Side float64 }

// Area is reached through the module interface Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// String is reached through the standard fmt.Stringer.
func (s Square) String() string { return fmt.Sprint(s.Side) }

// Scale is a method no interface declares and nothing calls.
func (s Square) Scale(k float64) Square { return Square{s.Side * k} }

// Used is called from the command.
func Used() int { return helper() }

func helper() int { return 1 }

// Unused has no caller outside tests.
func Unused() int { return OnlyFromUnused() + 1 }

// OnlyFromUnused is called only by Unused, so it is unreached too.
func OnlyFromUnused() int { return 2 }

// Allowed has no caller; the allowlist excuses it.
func Allowed() int { return 3 }
