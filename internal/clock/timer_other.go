//go:build !linux

package clock

import "time"

func newWaker(fire func()) (arm func(time.Duration), release func()) { return newTimerWaker(fire) }
