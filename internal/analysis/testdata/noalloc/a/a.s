// asmKernel and asmUnknown have no bodies anywhere: the analyzer reads only
// their Go declarations, and a non-Go file lets the package compile
// without them.
