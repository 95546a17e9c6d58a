// Package user is the second package of the reach fixture: a caller outside
// internal/, and the declarer of an interface lib.T satisfies.
package user

import "reach/internal/lib"

// Announcer is the consumer-side interface.
type Announcer interface{ Announce(string) }

// Exported funcs outside internal/ are out of scope.
func Run() { lib.UsedElsewhere() }
