#include "trace.h"

bool
perfbench::layerWrapsLinked()
{
    return PERFBENCH_LAYER_WRAPS != 0;
}
