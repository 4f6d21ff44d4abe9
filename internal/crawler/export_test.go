package crawler

// ScribbleLent switches the scribbling of lent iterations (see
// scribbleLent) on or off and returns a function restoring the previous
// setting.
func ScribbleLent(on bool) (restore func()) {
	prev := scribbleLent.Swap(on)
	return func() { scribbleLent.Store(prev) }
}

// Scribbled is the sentinel a scribbled record's string fields read.
const Scribbled = scribbled

// HostileConfig is hostileConfig for the external test package.
var HostileConfig = hostileConfig
