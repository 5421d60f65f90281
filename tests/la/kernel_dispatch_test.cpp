// Runtime kernel dispatch tests (docs/KERNELS.md): name resolution,
// LSI_KERNEL environment semantics, graceful fallback when the ISA is
// absent, and force() round-trips.

#include <gtest/gtest.h>

#include <string>

#include "la/kernels.hpp"

namespace {

using namespace lsi::la;

/// Every forced-kernel test restores "auto" so in-process test order never
/// leaks a forced kernel into other tests.
struct ForceGuard {
  ~ForceGuard() { kern::force("auto"); }
};

// --- select(): pure name resolution -----------------------------------------

TEST(KernelDispatch, SelectPortableIgnoresCpu) {
  for (bool cpu_ok : {false, true}) {
    const auto sel = kern::select("portable", cpu_ok);
    ASSERT_NE(sel.ops, nullptr);
    EXPECT_STREQ(sel.ops->name, "portable");
    EXPECT_FALSE(sel.fell_back);
  }
}

TEST(KernelDispatch, SelectAvx2FallsBackGracefullyWithoutIsa) {
  // cpu_ok == false models running the binary on a machine without AVX2:
  // an explicit "avx2" request must not crash or error, it serves portable
  // and flags the fallback.
  const auto sel = kern::select("avx2", /*cpu_ok=*/false);
  ASSERT_NE(sel.ops, nullptr);
  EXPECT_STREQ(sel.ops->name, "portable");
  EXPECT_TRUE(sel.fell_back);
}

TEST(KernelDispatch, SelectAvx2UsesIsaWhenPresent) {
  const auto sel = kern::select("avx2", /*cpu_ok=*/true);
  ASSERT_NE(sel.ops, nullptr);
  if (kern::avx2() != nullptr) {
    EXPECT_STREQ(sel.ops->name, "avx2");
    EXPECT_FALSE(sel.fell_back);
  } else {
    // Binary compiled without the AVX2 TU (non-x86): still graceful.
    EXPECT_STREQ(sel.ops->name, "portable");
    EXPECT_TRUE(sel.fell_back);
  }
}

TEST(KernelDispatch, SelectAutoNeverFlagsFallback) {
  for (bool cpu_ok : {false, true}) {
    const auto sel = kern::select("auto", cpu_ok);
    ASSERT_NE(sel.ops, nullptr);
    EXPECT_FALSE(sel.fell_back);
    if (!cpu_ok) {
      EXPECT_STREQ(sel.ops->name, "portable");
    }
  }
}

TEST(KernelDispatch, SelectUnknownNameIsNull) {
  EXPECT_EQ(kern::select("sse9", true).ops, nullptr);
  EXPECT_EQ(kern::select("", true).ops, nullptr);
  EXPECT_EQ(kern::select("PORTABLE", true).ops, nullptr);  // case-sensitive
}

// --- resolve_env(): the LSI_KERNEL startup semantics ------------------------

TEST(KernelDispatch, EnvUnsetOrEmptyResolvesAuto) {
  EXPECT_STREQ(kern::resolve_env(nullptr, false).name, "portable");
  EXPECT_STREQ(kern::resolve_env("", false).name, "portable");
  if (kern::avx2() != nullptr) {
    EXPECT_STREQ(kern::resolve_env(nullptr, true).name, "avx2");
  }
}

TEST(KernelDispatch, EnvForcesPortableEvenWithAvx2Cpu) {
  EXPECT_STREQ(kern::resolve_env("portable", true).name, "portable");
}

TEST(KernelDispatch, EnvAvx2FallsBackWithoutIsa) {
  EXPECT_STREQ(kern::resolve_env("avx2", false).name, "portable");
  if (kern::avx2() != nullptr) {
    EXPECT_STREQ(kern::resolve_env("avx2", true).name, "avx2");
  }
}

TEST(KernelDispatch, EnvUnknownValueRunsAuto) {
  // A typo in LSI_KERNEL must not brick the process.
  const kern::Ops& got = kern::resolve_env("fastest-please", true);
  const kern::Ops& want = kern::resolve_env(nullptr, true);
  EXPECT_STREQ(got.name, want.name);
}

// --- force(): process-global override ---------------------------------------

TEST(KernelDispatch, ForceRoundTrips) {
  ForceGuard guard;
  ASSERT_TRUE(kern::force("portable"));
  EXPECT_STREQ(kern::active().name, "portable");
  ASSERT_TRUE(kern::force("avx2"));
  if (kern::cpu_has_avx2() && kern::avx2() != nullptr) {
    EXPECT_STREQ(kern::active().name, "avx2");
  } else {
    EXPECT_STREQ(kern::active().name, "portable");  // graceful fallback
  }
  ASSERT_TRUE(kern::force("auto"));
}

TEST(KernelDispatch, ForceUnknownNameChangesNothing) {
  ForceGuard guard;
  ASSERT_TRUE(kern::force("portable"));
  EXPECT_FALSE(kern::force("quantum"));
  EXPECT_STREQ(kern::active().name, "portable");
}

}  // namespace
