/**
 * @file
 * Field-by-field core::RunResult equality, shared by the determinism
 * tests (engine A/B, parallel == serial). It walks core::resultFields,
 * so it checks every member, a new one included.
 */

#ifndef LWSP_TESTS_RESULT_EQ_HH
#define LWSP_TESTS_RESULT_EQ_HH

#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <variant>

#include "core/system.hh"

inline void
expectResultEq(const lwsp::core::RunResult &a,
               const lwsp::core::RunResult &b, const std::string &what)
{
    for (const lwsp::core::ResultField &f : lwsp::core::resultFields()) {
        std::visit(
            [&](auto m) {
                if constexpr (std::is_same_v<decltype(a.*m), const double &>)
                    EXPECT_DOUBLE_EQ(a.*m, b.*m) << what << ' ' << f.key;
                else
                    EXPECT_EQ(a.*m, b.*m) << what << ' ' << f.key;
            },
            f.member);
    }
}

#endif // LWSP_TESTS_RESULT_EQ_HH
