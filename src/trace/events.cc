#include "trace/events.hh"

#include <bit>

#include "common/parse.hh"

namespace lwsp {
namespace trace {

const char *
categoryName(Category c)
{
    return spec::enumName(categoryNames, std::countr_zero(categoryBit(c)));
}

std::uint32_t
parseCategory(const char *name)
{
    unsigned bit = 0;
    return spec::enumFromName(categoryNames, name, bit) ? 1u << bit : 0;
}

} // namespace trace
} // namespace lwsp
