// Package cliflag holds the flag check the command-line tools share: a
// tool that picks one mode from its flags must not drop the flags that
// mode does not read, or the arguments after its flags, in silence.
package cliflag

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// Check exits with status 2, before the tool does any work, when fs has
// an argument left after its flags or when a flag named in unread was set
// on the command line; the message names the argument or the flag. mode
// names the flag that chose the mode that leaves unread unread.
func Check(fs *flag.FlagSet, mode string, unread ...string) {
	name := filepath.Base(fs.Name())
	fs.Visit(func(f *flag.Flag) {
		if slices.Contains(unread, f.Name) {
			fmt.Fprintf(fs.Output(), "%s: -%s is not read with %s\n", name, f.Name, mode)
			os.Exit(2)
		}
	})
	if fs.NArg() > 0 {
		fmt.Fprintf(fs.Output(), "%s: unexpected argument %q\n", name, fs.Arg(0))
		os.Exit(2)
	}
}
