#include "errors.hh"

#include <array>
#include <utility>

namespace sciq {

namespace {

constexpr std::array<std::pair<ErrorCode, const char *>, 7> kCodeNames{{
    {ErrorCode::None, "none"},
    {ErrorCode::Config, "config"},
    {ErrorCode::Workload, "workload"},
    {ErrorCode::Deadlock, "deadlock"},
    {ErrorCode::Invariant, "invariant"},
    {ErrorCode::Resource, "resource"},
    {ErrorCode::Internal, "internal"},
}};

} // namespace

const char *
errorCodeName(ErrorCode code)
{
    for (const auto &[c, name] : kCodeNames) {
        if (c == code)
            return name;
    }
    return "internal";
}

} // namespace sciq
